package workflow

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func appendActor(log *[]string, mu *sync.Mutex, name string) Actor {
	return ActorFunc(func(ctx *Context, in Values) (Values, error) {
		mu.Lock()
		*log = append(*log, name)
		mu.Unlock()
		return Values{name: "done"}, nil
	})
}

func TestSequentialOrder(t *testing.T) {
	w := New("seq")
	var log []string
	var mu sync.Mutex
	w.MustAddNode("c", appendActor(&log, &mu, "c"), "b")
	w.MustAddNode("a", appendActor(&log, &mu, "a"))
	w.MustAddNode("b", appendActor(&log, &mu, "b"), "a")
	out, err := SequentialDirector{}.Run(w, &Context{}, Values{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(log, ",") != "a,b,c" {
		t.Fatalf("order = %v", log)
	}
	for _, k := range []string{"a", "b", "c"} {
		if out[k] != "done" {
			t.Fatalf("outputs = %v", out)
		}
	}
}

func TestDiamondDependency(t *testing.T) {
	// a -> {b, c} -> d: d must see both b's and c's outputs.
	w := New("diamond")
	mk := func(name string) Actor {
		return ActorFunc(func(_ *Context, in Values) (Values, error) {
			return Values{name: name}, nil
		})
	}
	w.MustAddNode("a", mk("a"))
	w.MustAddNode("b", mk("b"), "a")
	w.MustAddNode("c", mk("c"), "a")
	var dIn Values
	w.MustAddNode("d", ActorFunc(func(_ *Context, in Values) (Values, error) {
		dIn = in
		return Values{"d": "d"}, nil
	}), "b", "c")
	if _, err := (SequentialDirector{}).Run(w, &Context{}, Values{"init": "x"}); err != nil {
		t.Fatal(err)
	}
	if dIn["b"] != "b" || dIn["c"] != "c" || dIn["init"] != "x" {
		t.Fatalf("d inputs = %v", dIn)
	}
	if _, ok := dIn["d"]; ok {
		t.Fatal("node saw its own output")
	}
}

func TestValidateErrors(t *testing.T) {
	w := New("bad")
	w.MustAddNode("a", ActorFunc(nil), "missing")
	if _, err := w.Validate(); !errors.Is(err, ErrUnknownDep) {
		t.Fatalf("err = %v", err)
	}
	w2 := New("cycle")
	w2.MustAddNode("a", ActorFunc(nil), "b")
	w2.MustAddNode("b", ActorFunc(nil), "a")
	if _, err := w2.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("err = %v", err)
	}
	w3 := New("dup")
	w3.MustAddNode("a", ActorFunc(nil))
	if err := w3.AddNode("a", ActorFunc(nil)); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestNodeErrorPropagates(t *testing.T) {
	w := New("err")
	boom := errors.New("boom")
	w.MustAddNode("a", ActorFunc(func(*Context, Values) (Values, error) { return nil, boom }))
	ran := false
	w.MustAddNode("b", ActorFunc(func(*Context, Values) (Values, error) {
		ran = true
		return nil, nil
	}), "a")
	if _, err := (SequentialDirector{}).Run(w, &Context{}, Values{}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Fatal("dependent node ran after failure")
	}
}

func TestParallelDirectorRunsIndependentNodesConcurrently(t *testing.T) {
	w := New("par")
	var concurrent, peak int32
	slow := func(name string) Actor {
		return ActorFunc(func(*Context, Values) (Values, error) {
			cur := atomic.AddInt32(&concurrent, 1)
			for {
				old := atomic.LoadInt32(&peak)
				if cur <= old || atomic.CompareAndSwapInt32(&peak, old, cur) {
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
			atomic.AddInt32(&concurrent, -1)
			return Values{name: "ok"}, nil
		})
	}
	for i := 0; i < 4; i++ {
		w.MustAddNode(fmt.Sprintf("n%d", i), slow(fmt.Sprintf("n%d", i)))
	}
	out, err := (ParallelDirector{}).Run(w, &Context{}, Values{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("outputs = %v", out)
	}
	if atomic.LoadInt32(&peak) < 2 {
		t.Fatalf("peak concurrency = %d, want >= 2", peak)
	}
}

func TestParallelDirectorRespectsDeps(t *testing.T) {
	w := New("pdeps")
	var order []string
	var mu sync.Mutex
	w.MustAddNode("late", ActorFunc(func(*Context, Values) (Values, error) {
		mu.Lock()
		order = append(order, "late")
		mu.Unlock()
		return nil, nil
	}), "early")
	w.MustAddNode("early", ActorFunc(func(*Context, Values) (Values, error) {
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		order = append(order, "early")
		mu.Unlock()
		return nil, nil
	}))
	if _, err := (ParallelDirector{MaxParallel: 2}).Run(w, &Context{}, Values{}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Fatalf("order = %v", order)
	}
}

func TestParallelDirectorError(t *testing.T) {
	w := New("perr")
	boom := errors.New("boom")
	w.MustAddNode("bad", ActorFunc(func(*Context, Values) (Values, error) { return nil, boom }))
	w.MustAddNode("dep", ActorFunc(func(*Context, Values) (Values, error) { return nil, nil }), "bad")
	if _, err := (ParallelDirector{}).Run(w, &Context{}, Values{}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}
