package scenario

import (
	"fmt"
	"strings"
)

// check is one compiled assertion. Fn reads what the kind's run leaves in
// outcome.v (a *bench.ChaosReport, []bench.Table2Row, *bench.GridResult, ...).
type check struct {
	Name string
	Fn   func(v any) error
}

// An assertion is one row of a kind's assertion table: its name, and how an
// argument compiles into its check.
type assertion struct {
	name    string
	compile func(arg any, path string) (check, error)
}

// none is the argument type of an assertion that takes none (a bare name).
type none struct{}

// minMax is the argument type of an assertion that takes a {min, max}
// mapping.
type minMax struct{ min, max int }

// on is an assertion row whose check reads the kind's run R against the
// argument A. A picks the argument's one coercion: none, minMax, or else set,
// which types and range-checks it exactly as a block's key.
func on[R, A any](name string, fn func(R, A) error) assertion {
	return named(name, func(A) string { return name }, fn)
}

// named is on for a row whose check is named after its argument: label(arg).
func named[R, A any](name string, label func(A) string, fn func(R, A) error) assertion {
	return assertion{name, func(arg any, path string) (check, error) {
		var a A
		var err error
		switch d := any(&a).(type) {
		case *none:
			if arg != nil {
				err = fmt.Errorf("%s: takes no argument", path)
			}
		case *minMax:
			err = decode(arg, path, table{{"min", &d.min}, {"max", &d.max}})
		default:
			err = set(d, arg, path)
		}
		return check{label(a), func(v any) error { return fn(v.(R), a) }}, err
	}}
}

// A comparator is one row of a kind's baseline cross-checks, run between the
// primary's report and the baseline's.
type comparator struct {
	name string
	fn   func(rep, base any) error
}

// versus is a comparator row over the kind's run R.
func versus[R any](name string, fn func(rep, base R) error) comparator {
	return comparator{name, func(rep, base any) error { return fn(rep.(R), base.(R)) }}
}

// buildAsserts validates every assert entry's name and argument for the
// spec's kind and returns the compiled checkers. Unknown names and
// ill-typed arguments error here, so `simulator validate` rejects them
// without running anything.
func buildAsserts(s *Spec) ([]check, error) {
	k := kindOf(s.Kind)
	var out []check
	for i, a := range s.Asserts {
		path := fmt.Sprintf("scenario %s: assert[%d] %s", s.Name, i, a.Name)
		var names []string
		var row *assertion
		for j := range k.asserts {
			names = append(names, k.asserts[j].name)
			if k.asserts[j].name == a.Name {
				row = &k.asserts[j]
			}
		}
		if row == nil {
			return nil, fmt.Errorf("%s: unknown %s assertion (one of: %s)", path, k.name, strings.Join(names, ", "))
		}
		c, err := row.compile(a.Arg, path)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// comparator resolves the spec's compare name among its kind's comparators.
func (s *Spec) comparator() (func(rep, base any) error, error) {
	var names []string
	for _, c := range kindOf(s.Kind).compare {
		if c.name == s.Compare {
			return c.fn, nil
		}
		names = append(names, c.name)
	}
	return nil, fmt.Errorf("unknown compare %q (one of: %s)", s.Compare, strings.Join(names, ", "))
}

// failIf words a violation: the error when violated holds, else nil.
func failIf(violated bool, format string, args ...any) error {
	if violated {
		return fmt.Errorf(format, args...)
	}
	return nil
}
