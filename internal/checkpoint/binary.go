package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
	"strings"
)

// The envelope-2 payload is a positional binary encoding, planned once per
// type by reflection. Every exported field (bar `json:"-"`) is written in
// declaration order with no names, tags or type information:
//
//	bool         1 byte, 0 or 1
//	int kinds    zig-zag varint
//	uint kinds   uvarint
//	float64      8 bytes, the little-endian IEEE 754 bits
//	string       uvarint length, then the bytes
//	slice        uvarint 0 for nil, else length+1, then the elements
//	pointer      1 byte, 0 for nil, else 1 followed by the pointee
//	array        the elements, no length
//	struct       the fields in declaration order
//
// Slices and pointers keep nil distinct from empty, so a decoded value is
// reflect.DeepEqual to the encoded one. Maps, interfaces, channels and
// functions are rejected when the plan is built: maps would make the bytes
// depend on iteration order, and the others have no stable value to write.
//
// Because position replaces names, a reader built from differently ordered
// structs would misread the bytes. The payload therefore opens with an
// 8-byte digest of the layout — every field name and kind, in order — and
// a reader whose own digest differs refuses the file with ErrLayout.

// encFunc appends the encoding of v to b.
type encFunc func(b []byte, v reflect.Value) []byte

// decFunc decodes the next value from d into the settable v.
type decFunc func(d *decoder, v reflect.Value) error

// typeCodec is the plan for one type.
type typeCodec struct {
	enc encFunc
	dec decFunc
	// min is the fewest bytes any value of the type encodes to; a decoder
	// checks a claimed slice length against it before allocating.
	min int
	// layout names the type's shape: field names and kinds, in order.
	layout string
}

// payloadCodec is the plan for a payload root type plus its layout digest.
type payloadCodec struct {
	root   *typeCodec
	digest [8]byte
}

// newPayloadCodec plans t and every type it reaches.
func newPayloadCodec(t reflect.Type) (*payloadCodec, error) {
	root, err := planner{}.plan(t)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write([]byte(root.layout))
	pc := &payloadCodec{root: root}
	binary.LittleEndian.PutUint64(pc.digest[:], h.Sum64())
	return pc, nil
}

// append writes the layout digest and then v.
func (pc *payloadCodec) append(b []byte, v reflect.Value) []byte {
	return pc.root.enc(append(b, pc.digest[:]...), v)
}

// decode fills the settable v from payload, which must hold exactly one
// digest-prefixed value.
func (pc *payloadCodec) decode(payload []byte, v reflect.Value) error {
	if len(payload) < len(pc.digest) {
		return fmt.Errorf("%w: payload shorter than its layout digest", ErrCorrupt)
	}
	if [8]byte(payload[:8]) != pc.digest {
		return fmt.Errorf("%w: digest %x, this build writes %x", ErrLayout, payload[:8], pc.digest)
	}
	d := &decoder{buf: payload, off: len(pc.digest)}
	if err := pc.root.dec(d, v); err != nil {
		return err
	}
	if d.off != len(d.buf) {
		return d.fail(fmt.Sprintf("%d trailing bytes", len(d.buf)-d.off))
	}
	return nil
}

// planner memoizes one planning pass; a nil entry marks a type still being
// planned, so a recursive type is reported instead of looping.
type planner map[reflect.Type]*typeCodec

func (p planner) plan(t reflect.Type) (*typeCodec, error) {
	if c, ok := p[t]; ok {
		if c == nil {
			return nil, fmt.Errorf("checkpoint: recursive type %v has no positional encoding", t)
		}
		return c, nil
	}
	p[t] = nil
	c, err := p.build(t)
	if err != nil {
		return nil, err
	}
	p[t] = c
	return c, nil
}

func (p planner) build(t reflect.Type) (*typeCodec, error) {
	switch t.Kind() {
	case reflect.Bool:
		return &typeCodec{enc: encBool, dec: decBool, min: 1, layout: "bool"}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return &typeCodec{enc: encInt, dec: decInt, min: 1, layout: t.Kind().String()}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return &typeCodec{enc: encUint, dec: decUint, min: 1, layout: t.Kind().String()}, nil
	case reflect.Float64:
		return &typeCodec{enc: encFloat, dec: decFloat, min: 8, layout: "float64"}, nil
	case reflect.String:
		return &typeCodec{enc: encString, dec: decString, min: 1, layout: "string"}, nil
	case reflect.Slice:
		return p.slice(t)
	case reflect.Array:
		return p.array(t)
	case reflect.Pointer:
		return p.pointer(t)
	case reflect.Struct:
		return p.structure(t)
	}
	return nil, fmt.Errorf("checkpoint: %v (kind %v) has no positional encoding", t, t.Kind())
}

func (p planner) slice(t reflect.Type) (*typeCodec, error) {
	elem, err := p.plan(t.Elem())
	if err != nil {
		return nil, err
	}
	if elem.min == 0 {
		// A decoder bounds a claimed length by the bytes left; a zero-width
		// element would let a few bytes claim an unbounded allocation.
		return nil, fmt.Errorf("checkpoint: %v has zero-width elements", t)
	}
	enc := func(b []byte, v reflect.Value) []byte {
		if v.IsNil() {
			return append(b, 0)
		}
		n := v.Len()
		b = binary.AppendUvarint(b, uint64(n)+1)
		for i := 0; i < n; i++ {
			b = elem.enc(b, v.Index(i))
		}
		return b
	}
	dec := func(d *decoder, v reflect.Value) error {
		m, err := d.uvarint()
		if err != nil {
			return err
		}
		if m == 0 {
			v.SetZero()
			return nil
		}
		n := m - 1
		if n > uint64(len(d.buf)-d.off)/uint64(elem.min) {
			return d.fail(fmt.Sprintf("slice length %d exceeds the bytes left", n))
		}
		s := reflect.MakeSlice(t, int(n), int(n))
		for i := 0; i < int(n); i++ {
			if err := elem.dec(d, s.Index(i)); err != nil {
				return err
			}
		}
		v.Set(s)
		return nil
	}
	return &typeCodec{enc: enc, dec: dec, min: 1, layout: "[]" + elem.layout}, nil
}

func (p planner) array(t reflect.Type) (*typeCodec, error) {
	elem, err := p.plan(t.Elem())
	if err != nil {
		return nil, err
	}
	n := t.Len()
	enc := func(b []byte, v reflect.Value) []byte {
		for i := 0; i < n; i++ {
			b = elem.enc(b, v.Index(i))
		}
		return b
	}
	dec := func(d *decoder, v reflect.Value) error {
		for i := 0; i < n; i++ {
			if err := elem.dec(d, v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	}
	return &typeCodec{enc: enc, dec: dec, min: n * elem.min, layout: "[" + strconv.Itoa(n) + "]" + elem.layout}, nil
}

func (p planner) pointer(t reflect.Type) (*typeCodec, error) {
	elem, err := p.plan(t.Elem())
	if err != nil {
		return nil, err
	}
	enc := func(b []byte, v reflect.Value) []byte {
		if v.IsNil() {
			return append(b, 0)
		}
		return elem.enc(append(b, 1), v.Elem())
	}
	dec := func(d *decoder, v reflect.Value) error {
		present, err := d.flag("pointer marker")
		if err != nil {
			return err
		}
		if !present {
			v.SetZero()
			return nil
		}
		ptr := reflect.New(t.Elem())
		if err := elem.dec(d, ptr.Elem()); err != nil {
			return err
		}
		v.Set(ptr)
		return nil
	}
	return &typeCodec{enc: enc, dec: dec, min: 1, layout: "*" + elem.layout}, nil
}

func (p planner) structure(t reflect.Type) (*typeCodec, error) {
	type field struct {
		index int
		codec *typeCodec
	}
	var fields []field
	var layout strings.Builder
	layout.WriteByte('{')
	min := 0
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Tag.Get("json") == "-" {
			continue
		}
		c, err := p.plan(f.Type)
		if err != nil {
			return nil, fmt.Errorf("%w (field %s of %v)", err, f.Name, t)
		}
		if len(fields) > 0 {
			layout.WriteByte(',')
		}
		layout.WriteString(f.Name + ":" + c.layout)
		fields = append(fields, field{i, c})
		min += c.min
	}
	layout.WriteByte('}')
	enc := func(b []byte, v reflect.Value) []byte {
		for _, f := range fields {
			b = f.codec.enc(b, v.Field(f.index))
		}
		return b
	}
	dec := func(d *decoder, v reflect.Value) error {
		for _, f := range fields {
			if err := f.codec.dec(d, v.Field(f.index)); err != nil {
				return err
			}
		}
		return nil
	}
	return &typeCodec{enc: enc, dec: dec, min: min, layout: layout.String()}, nil
}

func encBool(b []byte, v reflect.Value) []byte {
	if v.Bool() {
		return append(b, 1)
	}
	return append(b, 0)
}

func encInt(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) }

func encUint(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) }

func encFloat(b []byte, v reflect.Value) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
}

func encString(b []byte, v reflect.Value) []byte {
	s := v.String()
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func decBool(d *decoder, v reflect.Value) error {
	x, err := d.flag("bool")
	if err != nil {
		return err
	}
	v.SetBool(x)
	return nil
}

func decInt(d *decoder, v reflect.Value) error {
	x, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return d.fail("bad varint")
	}
	if v.OverflowInt(x) {
		return d.fail(fmt.Sprintf("%d overflows %v", x, v.Type()))
	}
	d.off += n
	v.SetInt(x)
	return nil
}

func decUint(d *decoder, v reflect.Value) error {
	x, err := d.uvarint()
	if err != nil {
		return err
	}
	if v.OverflowUint(x) {
		return d.fail(fmt.Sprintf("%d overflows %v", x, v.Type()))
	}
	v.SetUint(x)
	return nil
}

func decFloat(d *decoder, v reflect.Value) error {
	if len(d.buf)-d.off < 8 {
		return d.fail("float64 past the end")
	}
	v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:])))
	d.off += 8
	return nil
}

func decString(d *decoder, v reflect.Value) error {
	n, err := d.uvarint()
	if err != nil {
		return err
	}
	if n > uint64(len(d.buf)-d.off) {
		return d.fail(fmt.Sprintf("string length %d exceeds the bytes left", n))
	}
	v.SetString(string(d.buf[d.off : d.off+int(n)]))
	d.off += int(n)
	return nil
}

// decoder walks a payload. Every read checks the bytes left first, so
// arbitrary input yields ErrCorrupt, never a panic or a huge allocation.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) fail(what string) error {
	return fmt.Errorf("%w: %s at payload offset %d", ErrCorrupt, what, d.off)
}

func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, d.fail("bad uvarint")
	}
	d.off += n
	return x, nil
}

// flag reads one byte that must be 0 or 1.
func (d *decoder) flag(what string) (bool, error) {
	if d.off >= len(d.buf) {
		return false, d.fail(what + " past the end")
	}
	switch d.buf[d.off] {
	case 0:
		d.off++
		return false, nil
	case 1:
		d.off++
		return true, nil
	}
	return false, d.fail(fmt.Sprintf("%s byte %d", what, d.buf[d.off]))
}
