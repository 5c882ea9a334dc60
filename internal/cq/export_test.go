package cq

// FoldBudget is the step budget of one fold.
const FoldBudget = foldStepBudget

// FoldSteps folds q and returns how much of its step budget the fold spent
// (all of it, if it ran out), the budget, and how many body atoms survived.
func FoldSteps(q *Query) (spent, budget, alive int) {
	f := intern(q.Head, q.Body)
	defer f.Release()
	f.search.steps = foldStepBudget // a fold that never searches spends nothing
	f.fold()
	return foldStepBudget - max(f.search.steps, 0), foldStepBudget, f.nAlive
}
