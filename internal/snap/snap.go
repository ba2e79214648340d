// Package snap deep-copies one struct graph onto another of the same
// type. It is the whole checkpoint mechanism: engine.Checkpoint copies a
// running engine onto a shadow, and Resume copies the shadow back onto a
// freshly built twin.
//
// Every field is copied by default, exported or not, so a new field
// travels with a checkpoint unless someone decides otherwise. A field
// tagged `snap:"-"` keeps the destination's own value: construction
// configuration, wiring pointers, hooks and memos. The rules:
//
//   - Pointers are owned. The pointee is deep-copied into dst's own
//     pointee, allocated when dst's is nil, so the identity of a dst
//     object that others hold through tagged wiring fields survives. A
//     nil src pointer makes dst's nil.
//   - A src pointer met twice in one Copy is an error. A shared object is
//     reached through one untagged field; every other holder tags its
//     field as wiring. A missed tag fails loudly instead of silently
//     duplicating state.
//   - Slices are deep-copied: onto dst's own storage when dst already
//     has src's length, into fresh storage otherwise. If a slice's
//     element type keeps part of dst (a tagged field or a lock, directly
//     or through pointers and arrays), the lengths must match instead; a
//     nil dst slice is first allocated to src's length.
//   - Maps are copied into fresh storage. Their keys and values must be
//     plain values or strings.
//   - An untagged func, chan, interface or unsafe.Pointer field is an
//     error: closures and dynamic types cannot be deep-copied.
//   - A sync.Mutex field is never copied. The copier holds it on src and
//     then on dst while it copies the struct that contains it.
//   - Recursive types are an error.
//
// Each type's plan is computed once and cached. A struct with no
// pointers and no tagged fields is copied as one assignment, and runs of
// such fields inside a larger struct as one block of bytes. A new
// pointee is allocated in one piece with every pointee below it that is
// reached through struct fields and arrays, so a fresh copy of an object
// graph allocates once for its root, once per pointee held in a slice,
// and once per backing array or map.
package snap

import (
	"fmt"
	"reflect"
	"sync"
	"unsafe"
)

// Copy deep-copies *src onto *dst. dst and src must be distinct non-nil
// pointers of the same type. It returns the bytes it allocated for dst:
// new pointees and the backing arrays of slices and maps, but not
// strings, which are immutable and shared. On error dst may be partly
// written and should be discarded.
func Copy(dst, src any) (int, error) {
	dv, sv := reflect.ValueOf(dst), reflect.ValueOf(src)
	if dv.Kind() != reflect.Pointer || dv.Type() != sv.Type() || dv.IsNil() || sv.IsNil() {
		return 0, fmt.Errorf("snap: Copy needs two non-nil pointers of one type, got %T and %T", dst, src)
	}
	d, s := dv.UnsafePointer(), sv.UnsafePointer()
	t := dv.Type().Elem()
	if d == s {
		return 0, fmt.Errorf("snap: Copy of %s onto itself", t)
	}
	p := planOf(t)
	if p.err != nil {
		return 0, p.err.withRoot(t)
	}
	c := copiers.Get().(*copier)
	c.seen = append(c.seen[:0], s)
	c.bytes, c.frame = 0, frame{}
	err := c.copy(p, d, s)
	n := c.bytes
	clear(c.seen)
	c.frame = frame{}
	copiers.Put(c)
	if err != nil {
		return 0, err.withRoot(t)
	}
	return n, nil
}

// pathError is a copy failure, located by its field path from the root type.
type pathError struct {
	root reflect.Type
	path string
	msg  string
}

func (e *pathError) Error() string { return fmt.Sprintf("snap: %s%s: %s", e.root, e.path, e.msg) }

// withRoot returns a copy of e anchored at root; plan errors are cached
// and shared, so they are never mutated.
func (e *pathError) withRoot(root reflect.Type) error {
	out := *e
	out.root = root
	return &out
}

// at prefixes a path segment onto the error.
func (e *pathError) at(seg string) *pathError {
	e.path = seg + e.path
	return e
}

type kind uint8

const (
	kRaw    kind = iota // no pointers and no tags: copied as bytes
	kAssign             // strings but no owned pointers or tags: one typed assignment
	kPtr
	kSlice
	kMap
	kArray
	kStruct
)

// plan is how to copy one type.
type plan struct {
	t    reflect.Type
	size uintptr
	kind kind
	// keep reports that copying a value of this type leaves part of dst
	// in place: a tagged field or a lock, directly or through pointers,
	// arrays and struct fields.
	keep   bool
	elem   *plan // kPtr pointee, kSlice/kArray element, kMap value
	fields []op  // kStruct
	locks  []uintptr
	err    *pathError

	// A new pointee is allocated together with every pointee statically
	// below it — through struct fields and arrays, not slices —
	// as one block: a struct with one field per object, in the order
	// the walk meets them. slots counts them (kPtr: the pointee and its
	// own; others: the ones below the value) and offs are their offsets.
	// blocks[n] is the struct of the first n, so a block ends at the
	// last object src has; a nil src pointer before it leaves its slots
	// unused.
	slots   int
	statics []static
	blocks  []reflect.Type
	offs    []uintptr
}

// op copies one struct field, or with p == nil a run of adjacent raw
// fields as size bytes.
type op struct {
	off, size uintptr
	p         *plan
	name      string
}

var (
	plans    sync.Map // reflect.Type → *plan
	planMu   sync.Mutex
	mutexTyp = reflect.TypeOf(sync.Mutex{})
)

func planOf(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	planMu.Lock()
	defer planMu.Unlock()
	return (&builder{open: map[reflect.Type]bool{}}).plan(t)
}

type builder struct {
	open map[reflect.Type]bool // types whose plan is being built
}

func (b *builder) plan(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	if b.open[t] {
		return &plan{t: t, err: &pathError{msg: fmt.Sprintf("recursive type %s", t)}}
	}
	b.open[t] = true
	p := b.build(t)
	delete(b.open, t)
	if p.err == nil {
		layout(p)
	}
	plans.Store(t, p)
	return p
}

// layout counts p's static slots and, for a pointer, builds its blocks.
func layout(p *plan) {
	switch p.kind {
	case kStruct:
		for _, f := range p.fields {
			if f.p != nil {
				p.slots += f.p.slots
			}
		}
	case kArray:
		p.slots = p.t.Len() * p.elem.slots
	case kPtr:
		p.slots = 1 + p.elem.slots
		if p.slots == 1 {
			return
		}
		p.statics = statics(p, -1, 0, nil)
		fields := make([]reflect.StructField, len(p.statics))
		p.blocks = make([]reflect.Type, len(p.statics)+1)
		for i, st := range p.statics {
			fields[i] = reflect.StructField{Name: fmt.Sprintf("F%d", i), Type: st.t}
			p.blocks[i+1] = reflect.StructOf(fields[:i+1])
		}
		for i := range fields {
			p.offs = append(p.offs, p.blocks[len(fields)].Field(i).Offset)
		}
	}
}

// static is one slot of a block: the object's type, and where the
// pointer to it sits — the slot of the object holding it (-1 for the
// block's own pointee) and its offset there.
type static struct {
	t      reflect.Type
	holder int
	off    uintptr
}

// statics appends p's slots in walk order; off is where p's value sits
// in holder's object.
func statics(p *plan, holder int, off uintptr, out []static) []static {
	switch p.kind {
	case kPtr:
		out = append(out, static{p.elem.t, holder, off})
		return statics(p.elem, len(out)-1, 0, out)
	case kStruct:
		for _, f := range p.fields {
			if f.p != nil {
				out = statics(f.p, holder, off+f.off, out)
			}
		}
	case kArray:
		for i := 0; i < p.t.Len(); i++ {
			out = statics(p.elem, holder, off+uintptr(i)*p.elem.size, out)
		}
	}
	return out
}

// extent counts the slots of p's block up to the last object src, the
// pointee, has.
func (c *copier) extent(p *plan, src unsafe.Pointer) int {
	n := 1
	c.objs = append(c.objs[:0], src)
	for i, st := range p.statics[1:] {
		var o unsafe.Pointer
		if h := c.objs[st.holder]; h != nil {
			if o = *(*unsafe.Pointer)(unsafe.Add(h, st.off)); o != nil {
				n = i + 2
			}
		}
		c.objs = append(c.objs, o)
	}
	clear(c.objs)
	return n
}

func (b *builder) build(t reflect.Type) *plan {
	p := &plan{t: t, size: t.Size()}
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		p.kind = kRaw
	case reflect.String:
		p.kind = kAssign
	case reflect.Pointer:
		p.kind, p.elem = kPtr, b.plan(t.Elem())
		p.keep, p.err = p.elem.keep, inherit(p.elem.err, "")
	case reflect.Slice:
		p.kind, p.elem = kSlice, b.plan(t.Elem())
		p.err = inherit(p.elem.err, "[]")
	case reflect.Array:
		p.elem = b.plan(t.Elem())
		p.keep, p.err = p.elem.keep, inherit(p.elem.err, "[]")
		p.kind = kArray
		if p.elem.kind <= kAssign {
			p.kind = p.elem.kind
		}
	case reflect.Map:
		p.kind, p.elem = kMap, b.plan(t.Elem())
		if k := b.plan(t.Key()); k.err != nil || p.elem.err != nil || k.kind > kAssign || p.elem.kind > kAssign {
			p.err = &pathError{msg: fmt.Sprintf("%s holds pointers; maps hold only plain values and strings", t)}
		}
	case reflect.Struct:
		b.buildStruct(p)
	default: // Func, Chan, Interface, UnsafePointer
		p.err = &pathError{msg: fmt.Sprintf("%s cannot be deep-copied; tag the field `snap:\"-\"`", t)}
	}
	return p
}

// inherit re-anchors an element's plan error one path segment down.
func inherit(err *pathError, seg string) *pathError {
	if err == nil {
		return nil
	}
	out := *err
	return out.at(seg)
}

func (b *builder) buildStruct(p *plan) {
	t := p.t
	if t == mutexTyp {
		p.err = &pathError{msg: "sync.Mutex outside a struct field"}
		return
	}
	rawEnd := -2 // index of the last field merged into a raw run
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch tag, ok := f.Tag.Lookup("snap"); {
		case ok && tag != "-":
			p.err = &pathError{path: "." + f.Name, msg: fmt.Sprintf("unknown tag snap:%q", tag)}
			return
		case ok:
			p.keep = true
			continue
		case f.Type == mutexTyp:
			p.keep = true
			p.locks = append(p.locks, f.Offset)
			continue
		}
		fp := b.plan(f.Type)
		if fp.err != nil {
			p.err = inherit(fp.err, "."+f.Name)
			return
		}
		p.keep = p.keep || fp.keep
		p.kind = max(p.kind, min(fp.kind, kStruct))
		if fp.kind == kRaw && rawEnd == i-1 {
			last := &p.fields[len(p.fields)-1]
			last.size = f.Offset + fp.size - last.off
		} else if fp.kind == kRaw {
			p.fields = append(p.fields, op{off: f.Offset, size: fp.size, name: f.Name})
		} else {
			p.fields = append(p.fields, op{off: f.Offset, p: fp, name: f.Name})
		}
		if fp.kind == kRaw {
			rawEnd = i
		}
	}
	switch {
	case p.keep || p.kind > kAssign:
		p.kind = kStruct
	default:
		p.fields = nil // copied whole
	}
}

// copier is one Copy's walk state.
type copier struct {
	seen  []unsafe.Pointer // src pointees visited, for the alias rule
	objs  []unsafe.Pointer // extent's scratch
	bytes int
	frame
}

// frame is where new static pointees come from: the block of the
// freshly allocated pointee being copied and its next slot. block is nil
// outside one, and inside a slice, whose elements are not static and
// start blocks of their own.
type frame struct {
	block unsafe.Pointer
	offs  []uintptr
	slot  int
}

var copiers = sync.Pool{New: func() any { return new(copier) }}

type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

func bytesAt(p unsafe.Pointer, n uintptr) []byte { return unsafe.Slice((*byte)(p), n) }

func (c *copier) copy(p *plan, dst, src unsafe.Pointer) *pathError {
	switch p.kind {
	case kRaw:
		copy(bytesAt(dst, p.size), bytesAt(src, p.size))
	case kAssign:
		reflect.NewAt(p.t, dst).Elem().Set(reflect.NewAt(p.t, src).Elem())
	case kPtr:
		return c.copyPtr(p, (*unsafe.Pointer)(dst), *(*unsafe.Pointer)(src))
	case kSlice:
		return c.copySlice(p, (*sliceHeader)(dst), (*sliceHeader)(src))
	case kMap:
		c.copyMap(p, dst, src)
	case kArray:
		for i := 0; i < p.t.Len(); i++ {
			off := uintptr(i) * p.elem.size
			if err := c.copy(p.elem, unsafe.Add(dst, off), unsafe.Add(src, off)); err != nil {
				return err.at(fmt.Sprintf("[%d]", i))
			}
		}
	case kStruct:
		return c.copyStruct(p, dst, src)
	}
	return nil
}

func (c *copier) copyPtr(p *plan, dst *unsafe.Pointer, s unsafe.Pointer) *pathError {
	if s == nil {
		*dst = nil
		if c.block != nil {
			c.slot += p.slots
		}
		return nil
	}
	if p.elem.size > 0 {
		for _, v := range c.seen {
			if v == s {
				return &pathError{msg: fmt.Sprintf("%s reached twice; tag all but one holder `snap:\"-\"`", p.t)}
			}
		}
		c.seen = append(c.seen, s)
	}
	d := *dst
	switch {
	case d == nil && c.block != nil:
		// Inside a new pointee, every pointer below it is nil too.
		d = unsafe.Add(c.block, c.offs[c.slot])
		c.slot++
		*dst = d
	case d == nil && p.slots > 1:
		blk := p.blocks[c.extent(p, s)]
		d = reflect.New(blk).UnsafePointer()
		c.bytes += int(blk.Size())
		*dst = d
		c.frame = frame{d, p.offs, 1}
		err := c.copy(p.elem, d, s)
		c.frame = frame{}
		return err
	case d == nil:
		d = reflect.New(p.elem.t).UnsafePointer()
		c.bytes += int(p.elem.size)
		*dst = d
	case d == s && p.elem.size > 0:
		return &pathError{msg: fmt.Sprintf("dst and src share %s", p.t)}
	}
	return c.copy(p.elem, d, s)
}

func (c *copier) copySlice(p *plan, dst, src *sliceHeader) *pathError {
	e := p.elem
	switch {
	case e.keep && dst.data == nil && src.data != nil:
		*dst = c.makeSlice(p, src.len)
	case e.keep && dst.len != src.len:
		return &pathError{msg: fmt.Sprintf("%d elements onto %d", src.len, dst.len)}
	case e.keep:
	case src.data == nil:
		*dst = sliceHeader{}
		return nil
	case dst.data != nil && dst.len == src.len && dst.data != src.data:
		// Same length: copy onto dst's own storage, as for an array.
	case e.kind == kRaw && e.size > 0 && src.len > 0:
		// Pointer-free elements need no typed allocation, nor zeroing
		// ahead of the copy.
		b := append([]byte(nil), bytesAt(src.data, uintptr(src.len)*e.size)...)
		c.bytes += len(b)
		*dst = sliceHeader{unsafe.Pointer(unsafe.SliceData(b)), src.len, src.len}
		return nil
	default:
		*dst = c.makeSlice(p, src.len)
	}
	switch e.kind {
	case kRaw:
		copy(bytesAt(dst.data, uintptr(src.len)*e.size), bytesAt(src.data, uintptr(src.len)*e.size))
	case kAssign:
		reflect.Copy(reflect.NewAt(p.t, unsafe.Pointer(dst)).Elem(), reflect.NewAt(p.t, unsafe.Pointer(src)).Elem())
	default:
		return c.copyElems(e, dst.data, src.data, src.len)
	}
	return nil
}

func (c *copier) makeSlice(p *plan, n int) sliceHeader {
	c.bytes += n * int(p.elem.size)
	return sliceHeader{reflect.MakeSlice(p.t, n, n).UnsafePointer(), n, n}
}

func (c *copier) copyElems(e *plan, dst, src unsafe.Pointer, n int) *pathError {
	saved := c.frame
	c.frame = frame{}
	defer func() { c.frame = saved }()
	for i := 0; i < n; i++ {
		off := uintptr(i) * e.size
		if err := c.copy(e, unsafe.Add(dst, off), unsafe.Add(src, off)); err != nil {
			return err.at(fmt.Sprintf("[%d]", i))
		}
	}
	return nil
}

func (c *copier) copyMap(p *plan, dst, src unsafe.Pointer) {
	sv, dv := reflect.NewAt(p.t, src).Elem(), reflect.NewAt(p.t, dst).Elem()
	if sv.IsNil() {
		dv.SetZero()
		return
	}
	m := reflect.MakeMapWithSize(p.t, sv.Len())
	var k, v reflect.Value
	var it reflect.MapIter
	for it.Reset(sv); it.Next(); {
		if !k.IsValid() {
			k, v = reflect.New(p.t.Key()).Elem(), reflect.New(p.t.Elem()).Elem()
		}
		k.SetIterKey(&it)
		v.SetIterValue(&it)
		m.SetMapIndex(k, v)
	}
	c.bytes += sv.Len() * int(p.t.Key().Size()+p.elem.size)
	dv.Set(m)
}

func (c *copier) copyStruct(p *plan, dst, src unsafe.Pointer) *pathError {
	for _, off := range p.locks {
		(*sync.Mutex)(unsafe.Add(src, off)).Lock()
		(*sync.Mutex)(unsafe.Add(dst, off)).Lock()
	}
	var err *pathError
	for i := range p.fields {
		f := &p.fields[i]
		d, s := unsafe.Add(dst, f.off), unsafe.Add(src, f.off)
		if f.p == nil {
			copy(bytesAt(d, f.size), bytesAt(s, f.size))
			continue
		}
		if err = c.copy(f.p, d, s); err != nil {
			err = err.at("." + f.name)
			break
		}
	}
	for i := len(p.locks) - 1; i >= 0; i-- {
		(*sync.Mutex)(unsafe.Add(dst, p.locks[i])).Unlock()
		(*sync.Mutex)(unsafe.Add(src, p.locks[i])).Unlock()
	}
	return err
}
