package snap

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

type leaf struct {
	n    int
	name string
}

type kept struct {
	v    int
	wire *leaf `snap:"-"`
}

type graph struct {
	Exported int
	hidden   float64
	cfg      string `snap:"-"`
	p        *leaf
	nilp     *leaf
	s        []leaf
	m        map[string]int
	arr      [2]leaf
	ks       []*kept
	b        []byte
}

type outer struct {
	a, b, c *inner
	arr     [2]*leaf
}

type inner struct {
	l  *leaf
	ls []*leaf
	v  int
}

type aliased struct {
	a, b *leaf
}

type aliasedTagged struct {
	a *leaf
	b *leaf `snap:"-"`
}

type withFunc struct{ f func() }
type withChan struct{ c chan int }
type withIface struct{ i any }
type withPtrMap struct{ m map[string]*leaf }
type withIfaceMap struct{ m map[any]int }
type nestedFunc struct{ in []withFunc }
type badTag struct {
	x int `snap:"keep"`
}

type locked struct {
	mu sync.Mutex
	n  int
}

type recursive struct {
	next *recursive
}

func fullGraph() *graph {
	return &graph{
		Exported: 1,
		hidden:   2.5,
		cfg:      "src",
		p:        &leaf{3, "p"},
		s:        []leaf{{4, "s0"}, {5, "s1"}},
		m:        map[string]int{"k": 6},
		arr:      [2]leaf{{8, "a0"}, {9, "a1"}},
		ks:       []*kept{{v: 10}, {v: 11}},
		b:        []byte("payload"),
	}
}

// TestCopy is the copier's rule table: each case builds a dst and a
// src, copies, and checks the outcome.
func TestCopy(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) (int, error)
		err  string // substring of the expected error; "" = success
	}{
		{
			name: "copied by default, tagged field kept",
			run: func(t *testing.T) (int, error) {
				src := fullGraph()
				w := &leaf{n: 99}
				dst := &graph{cfg: "dst", ks: []*kept{{wire: w}, {wire: w}}}
				n, err := Copy(dst, src)
				if err != nil {
					return n, err
				}
				if dst.Exported != 1 || dst.hidden != 2.5 || *dst.p != *src.p || dst.nilp != nil ||
					!reflect.DeepEqual(dst.s, src.s) || !reflect.DeepEqual(dst.m, src.m) ||
					dst.arr != src.arr || string(dst.b) != "payload" {
					t.Errorf("copy = %+v, want the fields of %+v", dst, src)
				}
				if dst.cfg != "dst" {
					t.Errorf("tagged cfg = %q, want dst's own %q", dst.cfg, "dst")
				}
				for i, k := range dst.ks {
					if k.v != src.ks[i].v || k.wire != w {
						t.Errorf("ks[%d] = {%d, %p}, want {%d, dst's wire %p}", i, k.v, k.wire, src.ks[i].v, w)
					}
				}
				return n, nil
			},
		},
		{
			name: "dst's own pointees and same-length slices are reused; new ones are counted",
			run: func(t *testing.T) (int, error) {
				own, s := &leaf{}, make([]leaf, 2)
				dst := &graph{p: own, s: s}
				n, err := Copy(dst, fullGraph())
				if dst.p != own {
					t.Error("Copy replaced dst's own pointee")
				}
				if &dst.s[0] != &s[0] || dst.s[1] != (leaf{5, "s1"}) {
					t.Error("Copy did not copy onto dst's own slice of the same length")
				}
				// m, b and ks (two *kept and the slice of pointers) are
				// allocated; p and s are not.
				var fresh graph
				m, _ := Copy(&fresh, fullGraph())
				if want := 3 * int(reflect.TypeOf(leaf{}).Size()); m-n != want {
					t.Errorf("allocating p and s counted %d bytes, want 3 × sizeof(leaf) = %d", m-n, want)
				}
				return n, err
			},
		},
		{
			name: "a fresh graph with nil holes and pointers in slices",
			run: func(t *testing.T) (int, error) {
				mk := func() *outer {
					return &outer{
						a:   &inner{l: &leaf{1, "a"}, ls: []*leaf{{2, "a0"}, nil}, v: 3},
						c:   &inner{v: 4},
						arr: [2]*leaf{nil, {5, "arr1"}},
					}
				}
				src := mk()
				var dst *outer
				n, err := Copy(&dst, &src)
				if err != nil {
					return n, err
				}
				src.a.l.n, src.a.ls[0].n, src.c.v, src.arr[1].n = -1, -1, -1, -1
				if !reflect.DeepEqual(dst, mk()) {
					t.Errorf("got %+v, want %+v", dst, mk())
				}
				// A block ends at the last object src has.
				short, shortDst := &outer{a: &inner{v: 1}}, (*outer)(nil)
				m, err := Copy(&shortDst, &short)
				if err != nil || !reflect.DeepEqual(shortDst, short) || m >= n {
					t.Errorf("short graph: %+v, %v, %d bytes (full graph %d)", shortDst, err, m, n)
				}
				return n, nil
			},
		},
		{
			name: "src mutated after Copy leaves dst unchanged",
			run: func(t *testing.T) (int, error) {
				src := fullGraph()
				var dst graph
				n, err := Copy(&dst, src)
				if err != nil {
					return n, err
				}
				src.p.n, src.s[0].n, src.m["k"], src.arr[0].n, src.ks[0].v, src.b[0] = -1, -1, -1, -1, -1, 'X'
				src.m["new"] = 1
				want := fullGraph()
				want.cfg, want.ks = "", []*kept{{v: 10}, {v: 11}}
				if !reflect.DeepEqual(dst, *want) {
					t.Errorf("dst changed with src:\n got %+v\nwant %+v", dst, *want)
				}
				return n, nil
			},
		},
		{
			name: "nil src slice and map make dst's nil; empty stays non-nil",
			run: func(t *testing.T) (int, error) {
				dst := fullGraph()
				dst.ks = nil
				n, err := Copy(dst, &graph{s: []leaf{}})
				if dst.s == nil || len(dst.s) != 0 || dst.m != nil || dst.p != nil || dst.b != nil {
					t.Errorf("got s=%v (nil %v), m=%v, p=%v, b=%v", dst.s, dst.s == nil, dst.m, dst.p, dst.b)
				}
				return n, err
			},
		},
		{
			name: "alias met twice",
			run: func(t *testing.T) (int, error) {
				l := &leaf{}
				return Copy(&aliased{}, &aliased{a: l, b: l})
			},
			err: ".b: *snap.leaf reached twice",
		},
		{
			name: "alias held once through an untagged field",
			run: func(t *testing.T) (int, error) {
				l := &leaf{n: 1}
				dst := &aliasedTagged{}
				n, err := Copy(dst, &aliasedTagged{a: l, b: l})
				if dst.a.n != 1 || dst.b != nil {
					t.Errorf("got a=%v b=%v", dst.a, dst.b)
				}
				return n, err
			},
		},
		{
			name: "untagged func",
			run:  func(*testing.T) (int, error) { return Copy(&withFunc{}, &withFunc{}) },
			err:  ".f: func() cannot be deep-copied",
		},
		{
			name: "untagged chan",
			run:  func(*testing.T) (int, error) { return Copy(&withChan{}, &withChan{}) },
			err:  ".c: chan int cannot be deep-copied",
		},
		{
			name: "untagged interface",
			run:  func(*testing.T) (int, error) { return Copy(&withIface{}, &withIface{}) },
			err:  ".i: interface {} cannot be deep-copied",
		},
		{
			name: "map values holding pointers",
			run:  func(*testing.T) (int, error) { return Copy(&withPtrMap{}, &withPtrMap{}) },
			err:  ".m: map[string]*snap.leaf holds pointers",
		},
		{
			name: "map keys holding interfaces",
			run:  func(*testing.T) (int, error) { return Copy(&withIfaceMap{}, &withIfaceMap{}) },
			err:  ".m: map[interface {}]int holds pointers",
		},
		{
			name: "untagged func found through the type graph, even when unset",
			run:  func(*testing.T) (int, error) { return Copy(&nestedFunc{}, &nestedFunc{}) },
			err:  ".in[].f: func()",
		},
		{
			name: "a second tag value",
			run:  func(*testing.T) (int, error) { return Copy(&badTag{}, &badTag{}) },
			err:  `.x: unknown tag snap:"keep"`,
		},
		{
			name: "recursive type",
			run:  func(*testing.T) (int, error) { return Copy(&recursive{}, &recursive{}) },
			err:  "recursive type",
		},
		{
			name: "slice length mismatch on an element type with tagged fields",
			run: func(*testing.T) (int, error) {
				return Copy(&graph{ks: []*kept{{}}}, &graph{ks: []*kept{{}, {}}})
			},
			err: ".ks: 2 elements onto 1",
		},
		{
			name: "Copy onto itself",
			run: func(*testing.T) (int, error) {
				g := fullGraph()
				return Copy(g, g)
			},
			err: "onto itself",
		},
		{
			name: "mismatched types",
			run:  func(*testing.T) (int, error) { return Copy(&leaf{}, &kept{}) },
			err:  "two non-nil pointers of one type",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.run(t)
			switch {
			case c.err == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case c.err != "" && err == nil:
				t.Fatalf("no error, want one containing %q", c.err)
			case c.err != "" && !strings.Contains(err.Error(), c.err):
				t.Fatalf("error %q, want one containing %q", err, c.err)
			}
		})
	}
}

// TestCopyHoldsLocksNeverCopiesThem: Copy waits for src's lock, and the
// held state it saw there is not copied: both locks are free afterwards.
func TestCopyHoldsLocksNeverCopiesThem(t *testing.T) {
	src, dst := &locked{n: 5}, &locked{}
	src.mu.Lock()
	done := make(chan error)
	go func() {
		_, err := Copy(dst, src)
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("Copy finished while src's lock was held")
	case <-time.After(20 * time.Millisecond):
	}
	src.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if dst.n != 5 {
		t.Errorf("n = %d, want 5", dst.n)
	}
	if !dst.mu.TryLock() || !src.mu.TryLock() {
		t.Error("Copy left a lock held")
	}
}
