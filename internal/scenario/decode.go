package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// A row is one key of one block of the file format, bound to the address of
// the variable it sets in the config the run consumes. The row is the only
// place the key's name, type and destination are stated; the type is dst's:
//
//	*string *bool *int *int64 *uint64 *float64 *time.Duration   a scalar
//	*[]string *[]int *[]float64                                 a list of scalars
//	func(string) error                                          a name the row resolves itself
//	table                                                       a nested block
//	*any *[]any                                                 kept as decoded, for a section
//	                                                            with a decoder of its own
//	present                                                     any of the above, noting the key
type row struct {
	key string
	dst any
}

// A table is one block's whole key set, one row per key.
type table []row

// present wraps the destination of a key whose presence means something by
// itself: a nested block that switches a mode on by being there (flow,
// recovery), a required block, a fault window's optional end.
type present struct {
	seen *bool
	dst  any
}

// decode walks one mapping of the document against its block's table: every
// key the document carries must be a row, and every value must coerce into
// its row's destination. A key that is absent or null leaves its destination
// as the caller set it, which is where the defaults live. path names the
// block in errors ("" is the document itself).
func decode(v any, path string, t table) error {
	m, ok := v.(map[string]any)
	if !ok {
		return mismatch(path, "a mapping", v)
	}
	known := 0
	for _, r := range t {
		v, ok := m[r.key]
		if !ok {
			continue
		}
		known++
		if v == nil {
			continue
		}
		sub := r.key
		if path != "" {
			sub = path + "." + r.key
		}
		if err := set(r.dst, v, sub); err != nil {
			return err
		}
	}
	if known == len(m) {
		return nil
	}
	valid := make([]string, len(t))
	isRow := make(map[string]bool, len(t))
	for i, r := range t {
		valid[i], isRow[r.key] = r.key, true
	}
	sort.Strings(valid)
	var unknown []string
	for k := range m {
		if !isRow[k] {
			unknown = append(unknown, k)
		}
	}
	sort.Strings(unknown)
	return fmt.Errorf("scenario: %sunknown key %q (valid keys: %s)", at(path, ": "), unknown[0], strings.Join(valid, ", "))
}

// set coerces one decoded value into the destination of its row — the one
// place a document value becomes a typed one.
func set(dst, v any, path string) error {
	var want string
	switch d := dst.(type) {
	case *string:
		s, ok := v.(string)
		if ok {
			*d = s
			return nil
		}
		want = "a string"
	case func(string) error:
		s, ok := v.(string)
		if !ok {
			want = "a string"
			break
		}
		if err := d(s); err != nil {
			return fmt.Errorf("scenario: %s: %w", path, err)
		}
		return nil
	case *bool:
		b, ok := v.(bool)
		if ok {
			*d = b
			return nil
		}
		want = "true or false"
	case *int:
		return setInt(d, v, path)
	case *int64:
		return setInt(d, v, path)
	case *uint64:
		return setInt(d, v, path)
	case *float64:
		switch n := v.(type) {
		case int64:
			*d = float64(n)
			return nil
		case float64:
			*d = n
			return nil
		}
		want = "a number"
	case *time.Duration:
		s, ok := v.(string)
		if !ok {
			want = `a duration string like "250ms"`
			break
		}
		dur, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: %s: invalid duration %q", path, s)
		}
		// Negative durations are rejected everywhere in the schema — no field
		// means anything with one.
		if dur < 0 {
			return fmt.Errorf("scenario: %s: negative duration %q", path, s)
		}
		*d = dur
		return nil
	case *[]string:
		return setList(d, v, path, "strings")
	case *[]int:
		return setList(d, v, path, "integers")
	case *[]float64:
		return setList(d, v, path, "numbers")
	case table:
		return decode(v, path, d)
	case *any:
		*d = v
		return nil
	case *[]any:
		seq, ok := v.([]any)
		if ok {
			*d = seq
			return nil
		}
		want = "a list"
	case present:
		*d.seen = true
		return set(d.dst, v, path)
	default:
		return fmt.Errorf("scenario: %s: no decoder for a %T destination", path, dst)
	}
	return mismatch(path, want, v)
}

// setInt is set's integer case. Negative integers are rejected wherever they
// appear, scalar or list element, exactly as negative durations are: no field
// means anything with one, and zero keeps meaning "use the default".
func setInt[T int | int64 | uint64](dst *T, v any, path string) error {
	n, ok := v.(int64)
	if f, isFloat := v.(float64); isFloat && f == float64(int64(f)) {
		n, ok = int64(f), true
	}
	if !ok {
		return mismatch(path, "an integer", v)
	}
	if n < 0 {
		return fmt.Errorf("scenario: %s must be >= 0, got %d", path, n)
	}
	*dst = T(n)
	return nil
}

// setList is set's list case: each element goes through set under its own
// indexed path.
func setList[T any](dst *[]T, v any, path, what string) error {
	seq, ok := v.([]any)
	if !ok {
		return mismatch(path, "a list of "+what, v)
	}
	out := make([]T, len(seq))
	for i, e := range seq {
		if err := set(&out[i], e, fmt.Sprintf("%s[%d]", path, i)); err != nil {
			return err
		}
	}
	*dst = out
	return nil
}

func mismatch(path, want string, v any) error {
	return fmt.Errorf("scenario: %smust be %s, got %s", at(path, " "), want, typeName(v))
}

// at renders a path ahead of a message; the document root has none.
func at(path, sep string) string {
	if path == "" {
		return ""
	}
	return path + sep
}

func typeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case map[string]any:
		return "mapping"
	case []any:
		return "list"
	case string:
		return "string"
	case bool:
		return "bool"
	case int64:
		return "integer"
	case float64:
		return "number"
	}
	return fmt.Sprintf("%T", v)
}
