// Fixture for txncheck: each want comment pins one diagnostic.
package txnfix

import (
	"streamsched/internal/mapper"
	"streamsched/internal/oneport"
)

func use(interface{}) {}

// --- straight-line resolution: ok ---

func commitStraight(s *oneport.System) {
	txn := s.Begin()
	txn.Compute(1)
	txn.Commit()
}

func deferAbort(s *oneport.System) float64 {
	txn := s.Begin()
	defer txn.Abort()
	return txn.Compute(1)
}

func deferClosureAbort(s *oneport.System) {
	txn := s.Begin()
	defer func() { txn.Abort() }()
	txn.Compute(1)
}

// --- discarded results ---

func discarded(s *oneport.System) {
	s.Begin() // want `result of Begin discarded`
}

func discardedBlank(s *oneport.System) {
	_ = s.Begin() // want `result of Begin discarded`
}

func escapesDirectly(s *oneport.System) {
	use(s.Begin()) // want `result of Begin escapes directly`
}

// --- leaks on some path ---

func leakEarlyReturn(s *oneport.System, bad bool) {
	txn := s.Begin() // want `may not reach Commit or Abort on every path`
	if bad {
		return
	}
	txn.Commit()
}

func leakFallsOffEnd(s *oneport.System) {
	txn := s.Begin() // want `may not reach Commit or Abort on every path`
	txn.Compute(1)
}

func leakOneBranch(s *oneport.System, ok bool) {
	txn := s.Begin() // want `may not reach Commit or Abort on every path`
	if ok {
		txn.Commit()
	}
}

func leakSwitchNoDefault(s *oneport.System, k int) {
	txn := s.Begin() // want `may not reach Commit or Abort on every path`
	switch k {
	case 0:
		txn.Commit()
	case 1:
		txn.Abort()
	}
}

// --- resolution on every path: ok ---

func bothBranches(s *oneport.System, ok bool) {
	txn := s.Begin()
	if ok {
		txn.Commit()
	} else {
		txn.Abort()
	}
}

func switchWithDefault(s *oneport.System, k int) {
	txn := s.Begin()
	switch k {
	case 0:
		txn.Commit()
	default:
		txn.Abort()
	}
}

func perIteration(s *oneport.System, n int) {
	for i := 0; i < n; i++ {
		txn := s.Begin()
		txn.Compute(1)
		txn.Abort()
	}
}

func breakAfterResolve(s *oneport.System, n int) {
	for i := 0; i < n; i++ {
		txn := s.Begin()
		if i > 2 {
			txn.Abort()
			break
		}
		txn.Commit()
	}
}

func leakViaBreak(s *oneport.System, n int) {
	for i := 0; i < n; i++ {
		txn := s.Begin() // want `may not reach Commit or Abort on every path`
		if i > 2 {
			break
		}
		txn.Commit()
	}
}

func panicPath(s *oneport.System, bad bool) {
	txn := s.Begin()
	if bad {
		panic("bad input") // terminates: not a leak
	}
	txn.Commit()
}

// --- escaping Txn values ---

func escapeCopy(s *oneport.System) {
	txn := s.Begin()
	t2 := txn // want `transaction copied to another variable`
	t2.Commit()
	txn.Commit()
}

func escapeReturn(s *oneport.System) oneport.Txn {
	txn := s.Begin() // want `may not reach Commit or Abort on every path`
	return txn       // want `transaction returned from the function`
}

func escapeArg(s *oneport.System) {
	txn := s.Begin()
	use(txn) // want `transaction passed by value`
	txn.Commit()
}

// --- closures are separate scopes ---

func resolveInClosureNotCounted(s *oneport.System) {
	txn := s.Begin() // want `may not reach Commit or Abort on every path`
	f := func() { txn.Abort() }
	_ = f
}

func beginInsideClosure(s *oneport.System) func() {
	return func() {
		txn := s.Begin() // want `may not reach Commit or Abort on every path`
		txn.Compute(1)
	}
}

// --- mapper transactions ---

func mapperOK(st *mapper.State, ok bool) {
	st.Begin(3)
	if ok {
		st.Commit()
	} else {
		st.Abort()
	}
}

func mapperLeak(st *mapper.State, bad bool) {
	st.Begin(3) // want `mapper transaction begun here may not reach Commit or Abort`
	if bad {
		return
	}
	st.Commit()
}

func mapperDeferred(st *mapper.State) {
	st.Begin(3)
	defer st.Abort()
}

// --- nested mapper transactions: a resolution closes the innermost ---

func nestedOK(st *mapper.State, keep bool) {
	st.Begin(1, 2)
	st.Begin(2)
	if keep {
		st.Commit()
	} else {
		st.Abort()
	}
	st.Abort()
}

func nestedOuterLeak(st *mapper.State) {
	st.Begin(1, 2) // want `mapper transaction begun here may not reach Commit or Abort`
	st.Begin(2)
	st.Abort()
}

func nestedEarlyReturn(st *mapper.State, bad bool) {
	st.Begin(1, 2) // want `mapper transaction begun here may not reach Commit or Abort`
	st.Begin(2)
	if bad {
		st.Abort() // resolves only the inner transaction
		return
	}
	st.Commit()
	st.Commit()
}

// nestedWindow is the speculative lookahead shape: one transaction per
// candidate window placement, a per-task ladder nested inside it.
func nestedWindow(st *mapper.State, tasks []int, fail func() bool) {
	for v := 0; v < 2; v++ {
		st.Begin(tasks...)
		for _, t := range tasks {
			st.Begin(t)
			if fail() {
				st.Abort()
				continue
			}
			st.Commit()
		}
		st.Abort()
	}
}

// nestedWindowLeak breaks out with the inner transaction open, so the
// trailing Abort resolves the inner one and the window's stays open.
func nestedWindowLeak(st *mapper.State, tasks []int, fail func() bool) {
	st.Begin(tasks...) // want `mapper transaction begun here may not reach Commit or Abort`
	for _, t := range tasks {
		st.Begin(t)
		if fail() {
			break
		}
		st.Commit()
	}
	st.Abort()
}

// --- suppression ---

func suppressed(s *oneport.System) {
	//nolint:txncheck // fixture: deliberate leak kept for the escape hatch test
	txn := s.Begin()
	txn.Compute(1)
}
