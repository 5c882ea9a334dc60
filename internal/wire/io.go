package wire

import (
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sync"
)

// ErrorBodyLimit bounds what a client reads of a non-2xx reply's body to
// find its error message: an error reply is a small JSON object, and a peer
// that sends more is not owed the memory.
const ErrorBodyLimit = 4096

// ReadAll appends everything r yields to buf, growing it as needed. A
// request body the serving layer bounded (http.MaxBytesReader) fails past
// the bound with *http.MaxBytesError.
func ReadAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		buf = slices.Grow(buf, 512)
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// BufPool pools byte buffers that hold a request's body and then its
// response. A buffer grown past the pool's retain limit is dropped on Put
// rather than kept. The pointer indirection keeps Put from allocating a
// slice header.
type BufPool struct {
	limit int
	pool  sync.Pool
}

// NewBufPool returns a pool that keeps buffers of capacity at most limit.
func NewBufPool(limit int) *BufPool { return &BufPool{limit: limit} }

// Get returns a pooled buffer, or a new empty one.
func (p *BufPool) Get() *[]byte {
	if b, ok := p.pool.Get().(*[]byte); ok {
		return b
	}
	return new([]byte)
}

// Put returns b to the pool unless it grew past the retain limit.
func (p *BufPool) Put(b *[]byte) {
	if cap(*b) <= p.limit {
		p.pool.Put(b)
	}
}

// WriteJSON writes v as a JSON reply with the given status: the small
// bodies of the routes that have no codec of their own.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
