package fault

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// poolWorkers are the worker counts every Pool property is checked at,
// for n tasks: sequential, two, more than two, and more workers than
// tasks.
func poolWorkers(n int) []int { return []int{1, 2, 8, n + 3} }

func noName(t *testing.T) func(int) string {
	return func(i int) string {
		t.Errorf("name(%d) called without a panic", i)
		return ""
	}
}

func TestPoolResultsInOrder(t *testing.T) {
	const n = 7
	for _, workers := range poolWorkers(n) {
		out := make([]int, n)
		failed, err := Pool("test", n, workers, noName(t), func(w, i int) error {
			if w < 0 || w >= min(workers, n) {
				t.Errorf("workers=%d: task %d ran on worker %d", workers, i, w)
			}
			out[i] = 10 * (i + 1)
			return nil
		})
		if err != nil || failed != -1 {
			t.Fatalf("workers=%d: got (%d, %v), want (-1, nil)", workers, failed, err)
		}
		if want := []int{10, 20, 30, 40, 50, 60, 70}; !reflect.DeepEqual(out, want) {
			t.Errorf("workers=%d: out = %v, want %v", workers, out, want)
		}
	}
}

// TestPoolLowestErrorWins fails several tasks: whichever fails first in
// time, the lowest failed index and its own error come back.
func TestPoolLowestErrorWins(t *testing.T) {
	const n = 9
	errs := map[int]error{3: errors.New("three"), 5: errors.New("five"), 6: errors.New("six")}
	for _, workers := range poolWorkers(n) {
		failed, err := Pool("test", n, workers, noName(t), func(w, i int) error {
			if i == 3 {
				time.Sleep(time.Millisecond) // let the higher failures land first
			}
			return errs[i]
		})
		if failed != 3 || err != errs[3] {
			t.Errorf("workers=%d: got (%d, %v), want (3, three)", workers, failed, err)
		}
	}
}

// TestPoolNoClaimAfterFailure holds tasks 0..k-1 open so that every
// worker holds one index and the last one, k, fails. Once the pool has
// recorded the failure, the held workers are released and must claim
// nothing more.
func TestPoolNoClaimAfterFailure(t *testing.T) {
	const n = 20
	recorded := make(chan int, 1)
	poolFailed = func(i int) { recorded <- i }
	defer func() { poolFailed = nil }()
	for _, workers := range poolWorkers(n) {
		k := min(workers, n) - 1
		var (
			mu      sync.Mutex
			ran     []int
			release = make(chan struct{})
			boom    = errors.New("boom")
		)
		type result struct {
			failed int
			err    error
		}
		done := make(chan result)
		go func() {
			failed, err := Pool("test", n, workers, noName(t), func(w, i int) error {
				mu.Lock()
				ran = append(ran, i)
				mu.Unlock()
				switch {
				case i < k:
					<-release
				case i == k:
					return boom
				}
				return nil
			})
			done <- result{failed, err}
		}()
		if i := <-recorded; i != k {
			t.Errorf("workers=%d: failure recorded for task %d, want %d", workers, i, k)
		}
		close(release)
		res := <-done
		if res.failed != k || res.err != boom {
			t.Errorf("workers=%d: got (%d, %v), want (%d, boom)", workers, res.failed, res.err, k)
		}
		if len(ran) != k+1 {
			t.Errorf("workers=%d: ran %v, want exactly the indices 0..%d", workers, ran, k)
		}
	}
}

// TestPoolRecoversPanic checks the attribution of a panicking task: the
// pool, the worker that ran it and the task name, with name called for
// that task alone.
func TestPoolRecoversPanic(t *testing.T) {
	const n = 6
	for _, workers := range poolWorkers(n) {
		var ranBy sync.Map
		var named []int
		failed, err := Pool("experiments", n, workers, func(i int) string {
			named = append(named, i)
			return fmt.Sprintf("point %d", i)
		}, func(w, i int) error {
			ranBy.Store(i, w)
			if i == 4 {
				panic("boom")
			}
			return nil
		})
		var wpe *WorkerPanicError
		if !errors.As(err, &wpe) || failed != 4 {
			t.Fatalf("workers=%d: got (%d, %v), want a WorkerPanicError at 4", workers, failed, err)
		}
		w, _ := ranBy.Load(4)
		if wpe.Pool != "experiments" || wpe.Task != "point 4" || wpe.Worker != w || wpe.Value != "boom" {
			t.Errorf("workers=%d: wrong attribution %+v (task 4 ran on worker %v)", workers, wpe, w)
		}
		if len(wpe.Stack) == 0 {
			t.Errorf("workers=%d: no stack recorded", workers)
		}
		if !reflect.DeepEqual(named, []int{4}) {
			t.Errorf("workers=%d: name called for %v, want [4]", workers, named)
		}
	}
}

func TestPoolEmpty(t *testing.T) {
	for _, workers := range poolWorkers(0) {
		failed, err := Pool("test", 0, workers, noName(t), func(w, i int) error {
			t.Errorf("workers=%d: task %d ran on an empty pool", workers, i)
			return nil
		})
		if failed != -1 || err != nil {
			t.Errorf("workers=%d: got (%d, %v), want (-1, nil)", workers, failed, err)
		}
	}
}
