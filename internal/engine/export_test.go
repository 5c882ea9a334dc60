package engine

import "repro/internal/cq"

// CompilePrepared compiles pq's plan afresh, past the plan cache, and
// returns what an evaluation executes: the program, the head's operations
// and the constants' strings.
func CompilePrepared(db *Database, pq *cq.Prepared) (prog, head any, consts []string, err error) {
	p, err := compilePlan(db, pq)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, c := range p.consts {
		consts = append(consts, c.s)
	}
	return p.program, p.head, consts, nil
}
