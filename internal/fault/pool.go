package fault

import (
	"runtime/debug"
	"sync"
)

// Pool runs task(w, i) for every index i in [0, n) on min(workers, n)
// workers (at least one) and returns the lowest failed index with its
// error, or (-1, nil) when every task succeeded. It is the one worker
// pool of the sweep chunks, the simulation replications and the
// experiment points, and its contract is what makes their outcomes
// independent of the worker count:
//
//   - indices are claimed in ascending order, so every index below a
//     claimed one has been claimed too;
//   - no index is handed out once a task has failed, and the tasks in
//     flight finish;
//   - the lowest failed index wins, which is the failure a sequential
//     loop over the indices would stop at;
//   - a panicking task is recovered into a *WorkerPanicError for pool,
//     naming its worker and name(i). name is called only on a panic, so
//     a task that succeeds costs no formatting.
//
// Worker 0 runs on the caller's goroutine, so workers <= 1 is a plain
// loop. task(w, i) runs on worker w's goroutine: per-worker state is
// best built there, in the worker's first task, and not by the caller
// before the pool starts, so that no two workers' hot fields share a
// cache line.
func Pool(pool string, n, workers int, name func(i int) string, task func(w, i int) error) (failed int, err error) {
	var (
		mu      sync.Mutex
		next    int
		failIdx = -1
		failErr error
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if failErr != nil || next >= n {
			return -1
		}
		next++
		return next - 1
	}
	run := func(w int) {
		for i := claim(); i >= 0; i = claim() {
			if err := runTask(pool, w, i, name, task); err != nil {
				mu.Lock()
				if failErr == nil || i < failIdx {
					failIdx, failErr = i, err
				}
				mu.Unlock()
				if poolFailed != nil {
					poolFailed(i)
				}
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	return failIdx, failErr
}

// poolFailed, when set, is called by Pool right after it has recorded
// the failure of task i. It lets a test order its next step after that
// record; it is nil outside tests.
var poolFailed func(i int)

// runTask runs one Pool task, recovering a panic as Guard does, but
// naming the task only once it has panicked.
func runTask(pool string, w, i int, name func(int) string, task func(w, i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &WorkerPanicError{Pool: pool, Worker: w, Task: name(i), Value: v, Stack: debug.Stack()}
		}
	}()
	return task(w, i)
}
