package httpd

import (
	"iter"
	"sort"
)

// Fields is an immutable set of name/value pairs: a request's or a
// response's headers, its cookies, or a browser's cookie jar. The zero
// value is empty. With and Without return a changed copy and never modify
// the receiver, so one Fields value can be shared by any number of
// requests, responses, visit logs and jars: WARP records every request and
// response for repair, and a recorded exchange must not change because
// another holder of the same set was edited.
//
// The sets are small (a few headers or cookies), so they are kept as
// sorted name/value pairs rather than as maps, whose smallest allocation
// is several times larger.
type Fields struct {
	kv *[]string // alternating names and values, sorted by name; nil when empty
}

// NewFields builds a set from alternating names and values. A trailing
// name without a value is ignored; of repeated names the last one wins.
func NewFields(kv ...string) Fields {
	var f Fields
	for i := 0; i+1 < len(kv); i += 2 {
		f = f.With(kv[i], kv[i+1])
	}
	return f
}

func (f Fields) pairs() []string {
	if f.kv == nil {
		return nil
	}
	return *f.kv
}

// find returns the pair index of name, and whether it is present.
func (f Fields) find(name string) (int, bool) {
	kv := f.pairs()
	i := sort.Search(len(kv)/2, func(i int) bool { return kv[2*i] >= name })
	return i, i < len(kv)/2 && kv[2*i] == name
}

// Get returns the value of name, or "".
func (f Fields) Get(name string) string {
	if i, ok := f.find(name); ok {
		return (*f.kv)[2*i+1]
	}
	return ""
}

// Len returns the number of names in the set.
func (f Fields) Len() int { return len(f.pairs()) / 2 }

// All yields every name and value in name order.
func (f Fields) All() iter.Seq2[string, string] {
	return func(yield func(string, string) bool) {
		kv := f.pairs()
		for i := 0; i+1 < len(kv); i += 2 {
			if !yield(kv[i], kv[i+1]) {
				return
			}
		}
	}
}

// Names returns the names in sorted order.
func (f Fields) Names() []string {
	kv := f.pairs()
	names := make([]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		names = append(names, kv[i])
	}
	return names
}

// Map returns a fresh copy of the set as a map the caller owns.
func (f Fields) Map() map[string]string {
	kv := f.pairs()
	m := make(map[string]string, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// With returns the set with name set to value.
func (f Fields) With(name, value string) Fields {
	i, ok := f.find(name)
	kv := f.pairs()
	if ok && kv[2*i+1] == value {
		return f
	}
	out := make([]string, 0, len(kv)+2)
	out = append(out, kv[:2*i]...)
	out = append(out, name, value)
	if ok {
		i++
	}
	out = append(out, kv[2*i:]...)
	return Fields{&out}
}

// Without returns the set without the given names. It returns f itself
// when none of them is present.
func (f Fields) Without(names ...string) Fields {
	kv := f.pairs()
	out := kv
	copied := false
	for i := 0; i < len(out); {
		drop := false
		for _, n := range names {
			if out[i] == n {
				drop = true
				break
			}
		}
		if !drop {
			i += 2
			continue
		}
		if !copied {
			out = append([]string(nil), out...)
			copied = true
		}
		out = append(out[:i], out[i+2:]...)
	}
	if !copied {
		return f
	}
	if len(out) == 0 {
		return Fields{}
	}
	return Fields{&out}
}

// Equal reports whether f and g hold the same names and values.
func (f Fields) Equal(g Fields) bool {
	a, b := f.pairs(), g.pairs()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
