package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestNewResolvesWidth(t *testing.T) {
	if got := New(0).Width(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0).Width() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(-3).Width(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(-3).Width() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(1).Width(); got != 1 || !New(1).Sequential() {
		t.Fatalf("New(1) = width %d, Sequential %v", got, New(1).Sequential())
	}
	if got := New(7).Width(); got != 7 || New(7).Sequential() {
		t.Fatalf("New(7) = width %d, Sequential %v", got, New(7).Sequential())
	}
	var zero Pool
	if zero.Width() != 1 || !zero.Sequential() {
		t.Fatalf("zero Pool = width %d, Sequential %v", zero.Width(), zero.Sequential())
	}
}

func TestRunExecutesEveryTaskOnce(t *testing.T) {
	for _, width := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 3, 100} {
			hits := make([]atomic.Int32, n)
			New(width).Run(n, func(task int) {
				hits[task].Add(1)
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("width=%d n=%d: task %d ran %d times", width, n, i, got)
				}
			}
		}
	}
}

// TestRunRepanicsOnCaller pins that a task panic at width 2 unwinds
// the caller goroutine, as it does at width 1, instead of killing the
// process from a worker goroutine.
func TestRunRepanicsOnCaller(t *testing.T) {
	defer func() {
		if r := recover(); r != "task 1" {
			t.Fatalf("recovered %v, want task 1's panic value", r)
		}
	}()
	New(2).Run(4, func(task int) {
		if task == 1 {
			panic("task 1")
		}
	})
	t.Fatal("Run returned normally after a task panicked")
}

func TestChunksCoverInOrder(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 17, 100} {
		for _, parts := range []int{0, 1, 2, 4, 7, 150} {
			chunks := Chunks(n, parts)
			covered := 0
			for i, c := range chunks {
				if c[0] != covered {
					t.Fatalf("n=%d parts=%d: chunk %d starts at %d, want %d", n, parts, i, c[0], covered)
				}
				if c[1] <= c[0] {
					t.Fatalf("n=%d parts=%d: empty chunk %v", n, parts, c)
				}
				covered = c[1]
			}
			if covered != n {
				t.Fatalf("n=%d parts=%d: chunks cover %d", n, parts, covered)
			}
		}
	}
}

func TestMapCollectsInTaskOrder(t *testing.T) {
	out, err := Map(context.Background(), New(4), 50, func(task int) (int, error) {
		return task * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*2)
		}
	}
}

func TestMapFirstErrorInTaskOrder(t *testing.T) {
	wantA, wantB := errors.New("a"), errors.New("b")
	_, err := Map(context.Background(), New(4), 20, func(task int) (int, error) {
		switch task {
		case 3:
			return 0, wantA
		case 11:
			return 0, wantB
		}
		return task, nil
	})
	if err != wantA {
		t.Fatalf("Map error = %v, want first-in-task-order %v", err, wantA)
	}
}

func TestMapCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	if _, err := Map(ctx, New(1), 5, func(task int) (int, error) {
		ran++
		return task, nil
	}); err == nil {
		t.Fatal("Map with cancelled context succeeded")
	}
	if ran != 0 {
		t.Fatalf("cancelled Map still ran %d tasks", ran)
	}
}
