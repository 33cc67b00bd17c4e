// Package contract pins the repo's two long-lived JSON contracts — the
// /v1 wire surface (api.schema.json) and the checkpoint payload
// (ckpt.schema.json) — as golden documents built by reflection. The shape
// of a type is read with encoding/json's own field rules, so a golden
// describes what the encoder really writes, and Diff tells a golden test
// how the code has drifted from its pin.
package contract

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
)

var update = flag.Bool("update", false, "rewrite the contract goldens from the current code")

// Schema is the wire shape of one struct: JSON field name to a structural
// type descriptor — "string", "int64", "[]float64", "*bool",
// "map[string]int", "base64" for []byte, "any" for an interface,
// "object:<pkg.Type>" for a named struct pinned under its own key,
// "struct{a:int;b:string}" for an anonymous nested one — with
// ",omitempty" appended when the tag carries it, so a tag-option change is
// a shape change too.
type Schema map[string]string

// Doc is one golden file. The API golden carries Routes, the checkpoint
// golden the two versions it is keyed by; both carry Types, keyed
// "<import path>.<Name>". Field order and omitempty reproduce both files'
// layout.
type Doc struct {
	EnvelopeVersion int               `json:"envelope_version,omitempty"`
	SnapshotVersion int               `json:"snapshot_version,omitempty"`
	Routes          []string          `json:"routes,omitempty"`
	Types           map[string]Schema `json:"types"`
}

// Types returns the schema of every struct the roots reach. A named root
// pins under its own key; an anonymous root struct (a handler's inline
// response type) pins under "<pkg>.{field,field}" with its sorted field
// names. Pointer roots unwrap: a *T on the wire is a T.
func Types(pkg string, roots ...reflect.Type) map[string]Schema {
	types := make(map[string]Schema)
	for _, t := range roots {
		for t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		if t.Name() == "" && t.Kind() == reflect.Struct {
			shape := fields(types, t)
			types[pkg+".{"+strings.Join(sortedKeys(shape), ",")+"}"] = shape
		} else {
			descriptor(types, t)
		}
	}
	return types
}

// descriptor renders t, registering in types every named struct it
// reaches. A named type with its own MarshalJSON is described by what its
// marshaler writes for the zero value, not by its Go fields.
func descriptor(types map[string]Schema, t reflect.Type) string {
	key := t.PkgPath() + "." + t.Name()
	if t.Name() != "" && reflect.PointerTo(t).Implements(reflect.TypeFor[json.Marshaler]()) {
		var v any
		data, err := json.Marshal(reflect.New(t).Interface())
		if err != nil || json.Unmarshal(data, &v) != nil {
			return "custom:" + key
		}
		obj, ok := v.(map[string]any)
		if !ok {
			return valueDescriptor(v)
		}
		types[key] = make(Schema, len(obj))
		for name, fv := range obj {
			types[key][name] = valueDescriptor(fv)
		}
		return "object:" + key
	}
	switch t.Kind() {
	case reflect.Struct:
		if t.Name() == "" {
			shape := fields(types, t)
			parts := make([]string, 0, len(shape))
			for _, name := range sortedKeys(shape) {
				parts = append(parts, name+":"+shape[name])
			}
			return "struct{" + strings.Join(parts, ";") + "}"
		}
		if _, seen := types[key]; !seen {
			types[key] = nil // in progress: a recursive reference stops here
			types[key] = fields(types, t)
		}
		return "object:" + key
	case reflect.Pointer:
		return "*" + descriptor(types, t.Elem())
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return "base64"
		}
		return "[]" + descriptor(types, t.Elem())
	case reflect.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), descriptor(types, t.Elem()))
	case reflect.Map:
		return "map[" + descriptor(types, t.Key()) + "]" + descriptor(types, t.Elem())
	case reflect.Interface:
		return "any"
	}
	// Basic kinds, named or not: simclock.Day is an int on the wire.
	return t.Kind().String()
}

// valueDescriptor types one decoded JSON value: "string", "float64",
// "bool", "[]any", "map[string]any", or "any" for null.
func valueDescriptor(v any) string {
	if v == nil {
		return "any"
	}
	return descriptor(nil, reflect.TypeOf(v))
}

// fields flattens one struct the way encoding/json does: unexported and
// `json:"-"` fields are invisible, untagged embedded structs promote their
// fields (a direct field shadows a promoted one), and of the tag options
// only omitempty changes the wire.
func fields(types map[string]Schema, t reflect.Type) Schema {
	shape, promoted := make(Schema), make(Schema)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		switch {
		case tag == "-":
		case f.Anonymous && tag == "" && ft.Kind() == reflect.Struct:
			for name, desc := range fields(types, ft) {
				promoted[name] = desc
			}
		case f.IsExported():
			name, opts, _ := strings.Cut(tag, ",")
			if name == "" {
				name = f.Name
			}
			shape[name] = descriptor(types, f.Type)
			if strings.Contains(","+opts+",", ",omitempty,") {
				shape[name] += ",omitempty"
			}
		}
	}
	for name, desc := range promoted {
		if _, shadowed := shape[name]; !shadowed {
			shape[name] = desc
		}
	}
	return shape
}

// Change is one divergence between a golden and the current shape. Type
// and Field are empty for a route; Field is empty for a whole type.
type Change struct {
	Kind     string // "removed", "added" or "changed"
	Route    string
	Type     string
	Field    string
	Old, New string
}

func (c Change) String() string {
	switch {
	case c.Route != "":
		return fmt.Sprintf("route %q %s", c.Route, c.Kind)
	case c.Field == "":
		return fmt.Sprintf("type %s %s", c.Type, c.Kind)
	case c.Kind == "changed":
		return fmt.Sprintf("field %q of %s changed type %s -> %s", c.Field, c.Type, c.Old, c.New)
	}
	return fmt.Sprintf("field %q of %s %s", c.Field, c.Type, c.Kind)
}

// Diff compares golden against current — routes, then types, then the
// fields of every type both pin — in a deterministic order.
func Diff(golden, current Doc) []Change {
	var out []Change
	for _, r := range setDiff(golden.Routes, current.Routes) {
		out = append(out, Change{Kind: r[0], Route: r[1]})
	}
	for _, k := range setDiff(sortedKeys(golden.Types), sortedKeys(current.Types)) {
		out = append(out, Change{Kind: k[0], Type: k[1]})
	}
	for _, key := range sortedKeys(golden.Types) {
		old, now := golden.Types[key], current.Types[key]
		if now == nil {
			continue
		}
		for _, f := range setDiff(sortedKeys(old), sortedKeys(now)) {
			out = append(out, Change{Kind: f[0], Type: key, Field: f[1], Old: old[f[1]], New: now[f[1]]})
		}
		for _, field := range sortedKeys(old) {
			if d, ok := now[field]; ok && d != old[field] {
				out = append(out, Change{Kind: "changed", Type: key, Field: field, Old: old[field], New: d})
			}
		}
	}
	return out
}

// setDiff pairs each element of old missing from now with "removed", then
// each element of now missing from old with "added".
func setDiff(old, now []string) [][2]string {
	var out [][2]string
	for _, s := range missing(old, now) {
		out = append(out, [2]string{"removed", s})
	}
	for _, s := range missing(now, old) {
		out = append(out, [2]string{"added", s})
	}
	return out
}

// missing returns the elements of from that are not in in, in order.
func missing(from, in []string) []string {
	set := make(map[string]bool, len(in))
	for _, s := range in {
		set[s] = true
	}
	var out []string
	for _, s := range from {
		if !set[s] {
			out = append(out, s)
		}
	}
	return out
}

// Golden reads the golden document at path. Under the -update test flag
// it first rewrites the file from current (JSON maps marshal with sorted
// keys, so the file is deterministic).
func Golden(path string, current Doc) (Doc, error) {
	if *update {
		data, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			return Doc{}, err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return Doc{}, err
		}
	}
	var golden Doc
	data, err := os.ReadFile(path)
	if err != nil {
		return golden, err
	}
	return golden, json.Unmarshal(data, &golden)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
