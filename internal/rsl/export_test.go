package rsl

// StringValue builds a scalar value.
func StringValue(s string) Value { return Value{Str: s} }

// ListValue builds a sublist value.
func ListValue(vs ...Value) Value {
	if vs == nil {
		vs = []Value{}
	}
	return Value{List: vs}
}
