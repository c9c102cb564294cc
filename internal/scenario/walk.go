package scenario

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The scenario format is defined by field tables, one per object, in
// decode.go. This file is the one walk over them: it reads each row's field
// off the parse tree, type-checks and bounds the value, stores it, and
// finally rejects any field no row read.

// kind says how a field's value decodes and which bound it must meet.
type kind uint8

const (
	kInt      kind = iota // integer >= lo, and <= hi unless hi is 0
	kUint                 // non-negative 64-bit integer
	kBool                 // boolean
	kStr                  // any string
	kName                 // string matching [a-z0-9_]{1,64}
	kStream               // string matching [a-z0-9_-]{1,64}
	kOneOf                // string among names
	kTag                  // string among variants' keys, which adds that variant's rows
	kFrac                 // number in [lo, hi]
	kRate                 // number in (0, 1]
	kPositive             // finite number > 0
	kBound                // number other than NaN, stored through a **float64
	kDur                  // duration >= 0
	kTime                 // event time: a duration not before t=0
	kPosDur               // duration > 0
	kFunc                 // decoded and checked by fn
	kList                 // array of at least lo items, fn decoding each
)

// field is one row of an object's field table: the key, how its value
// decodes and what bounds it, whether it must be present, and where the
// value goes. An object's rows decode in table order, so the table also
// fixes which error a document with several gets.
type field struct {
	key      string
	kind     kind
	req      bool
	lo, hi   float64
	names    []string           // kOneOf
	variants map[string][]field // kTag
	// bad replaces the kind's out-of-bounds message; {obj}, {field}, {want}
	// and {got} stand for the object, the field, the bound and the value.
	bad string
	dst any // *int, *uint64, *bool, *string, *float64, **float64 or *time.Duration
	// check, if set, runs once the value is stored and within its bound:
	// it holds the checks that need other fields.
	check func(v *value, what string) error
	fn    func(v *value, what string) error // kFunc; kList calls it per item
}

type decoder struct {
	file string
}

func (d *decoder) errAt(at pos, format string, args ...any) error {
	return &Error{File: d.file, Line: at.line, Col: at.col, Msg: fmt.Sprintf(format, args...)}
}

// expect rejects a value whose JSON kind is not k; noun names k.
func (d *decoder) expect(v *value, what string, k vkind, noun string) error {
	if v.kind != k {
		return d.errAt(v.at, "%s must be %s, got %s", what, noun, v.kind)
	}
	return nil
}

// obj is an object under decoding: what names it in errors, prefix heads
// its fields' names, and used holds the keys its rows have read, so finish
// can reject the rest.
type obj struct {
	d            *decoder
	v            *value
	what, prefix string
	used         map[string]bool
}

func (d *decoder) object(v *value, what, prefix string) (*obj, error) {
	if err := d.expect(v, what, vObj, "an object"); err != nil {
		return nil, err
	}
	return &obj{d: d, v: v, what: what, prefix: prefix, used: make(map[string]bool)}, nil
}

// fields decodes the object v through its table and rejects unknown keys.
func (d *decoder) fields(v *value, what, prefix string, rows ...field) error {
	o, err := d.object(v, what, prefix)
	if err == nil {
		err = o.walk(rows...)
	}
	if err == nil {
		err = o.finish()
	}
	return err
}

// finish rejects the first field no row read.
func (o *obj) finish() error {
	for _, f := range o.v.fields {
		if !o.used[f.key] {
			return o.d.errAt(f.at, "unknown field %q in %s", f.key, o.what)
		}
	}
	return nil
}

// walk decodes the rows in order, stopping at the first error.
func (o *obj) walk(rows ...field) error {
	for i := range rows {
		f := &rows[i]
		o.used[f.key] = true
		v := o.v.field(f.key)
		if v == nil && f.req {
			return o.d.errAt(o.v.at, "missing required field %q in %s", f.key, o.what)
		}
		if v != nil {
			if err := o.decode(f, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// decode type-checks v, stores it through f.dst, and checks f's bound and
// then f.check.
func (o *obj) decode(f *field, v *value) error {
	d, what := o.d, strings.TrimPrefix(o.prefix+" "+strconv.Quote(f.key), " ")
	ok, want, got, bad := true, "", "", "{field} must be {want}, got {got}"
	var err error
	switch f.kind {
	case kInt:
		var n int
		if n, err = d.integer(v, what); err == nil {
			*f.dst.(*int), got = n, strconv.Itoa(n)
			ok, want = n >= int(f.lo), fmt.Sprintf(">= %d", int(f.lo))
			if f.hi != 0 {
				ok, want = ok && n <= int(f.hi), fmt.Sprintf("in [%d, %d]", int(f.lo), int(f.hi))
			}
		}
	case kUint:
		if err = d.expect(v, what, vNum, "a non-negative integer"); err == nil {
			n, perr := strconv.ParseUint(v.raw, 10, 64)
			if perr != nil {
				// Not a plain digit string (1e3, 2.0): its value decides.
				if v.num != math.Trunc(v.num) || v.num < 0 || v.num > 1<<53 {
					return d.errAt(v.at, "%s must be a non-negative integer", what)
				}
				n = uint64(v.num)
			}
			*f.dst.(*uint64) = n
		}
	case kBool:
		if err = d.expect(v, what, vBool, "a boolean"); err == nil {
			*f.dst.(*bool) = v.boolv
		}
	case kStr, kName, kStream, kOneOf, kTag:
		if err = d.expect(v, what, vStr, "a string"); err != nil {
			break
		}
		s := v.str
		*f.dst.(*string), got = s, strconv.Quote(s)
		switch f.kind {
		case kName, kStream:
			want, bad = "[a-z0-9_]{1,64}", "{field} must match {want}, got {got}"
			if f.kind == kStream {
				want = "[a-z0-9_-]{1,64}"
			}
			ok = s != "" && len(s) <= 64
			for _, c := range s {
				ok = ok && (c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || f.kind == kStream && c == '-')
			}
		case kOneOf:
			ok, want = slices.Contains(f.names, s), quoteList(f.names)
		case kTag:
			var rows []field
			if rows, ok = f.variants[s]; ok {
				err = o.walk(rows...)
			}
		}
	case kFrac, kRate, kPositive:
		if err = d.expect(v, what, vNum, "a number"); err != nil {
			break
		}
		x := v.num
		*f.dst.(*float64), got = x, fmt.Sprint(x)
		switch f.kind {
		case kFrac:
			ok, want = x >= f.lo && x <= f.hi, fmt.Sprintf("in [%v, %v]", f.lo, f.hi)
		case kRate:
			ok, want = x > 0 && x <= 1, "in (0, 1]"
		default:
			ok, want = x > 0 && !math.IsInf(x, 0), "positive"
		}
	case kBound:
		if err = d.expect(v, what, vNum, "a number"); err == nil {
			x := v.num
			*f.dst.(**float64), ok, bad = &x, !math.IsNaN(x), "{field} must not be NaN"
		}
	case kDur, kTime, kPosDur:
		if err = d.expect(v, what, vStr, `a duration string (e.g. "48h", "30d")`); err != nil {
			break
		}
		t, perr := parseDur(v.str)
		if perr != nil {
			return d.errAt(v.at, "%s: invalid duration %q", what, v.str)
		}
		*f.dst.(*time.Duration), ok, got = t, t >= 0, strconv.Quote(v.str)
		switch f.kind {
		case kDur:
			bad = "{field} must be >= 0"
		case kTime:
			bad = "{field} is before t=0 ({got})"
		default:
			ok, want = t > 0, "positive"
		}
	case kFunc:
		err = f.fn(v, what)
	case kList:
		if err = d.expect(v, what, vArr, "an array"); err != nil {
			break
		}
		for i, item := range v.items {
			if err = f.fn(item, fmt.Sprintf("%s[%d]", f.key, i)); err != nil {
				break
			}
		}
		ok = len(v.items) >= int(f.lo)
	}
	switch {
	case err != nil:
		return err
	case !ok:
		if f.bad != "" {
			bad = f.bad
		}
		r := strings.NewReplacer("{obj}", o.prefix, "{field}", what, "{want}", want, "{got}", got)
		return d.errAt(v.at, "%s", r.Replace(bad))
	case f.check != nil:
		return f.check(v, what)
	}
	return nil
}

// integer decodes an int32-range integer; the exact source token decides
// where it can, so 1e3 is an integer and 2147483648 is out of range.
func (d *decoder) integer(v *value, what string) (int, error) {
	if err := d.expect(v, what, vNum, "an integer"); err != nil {
		return 0, err
	}
	if n, err := strconv.ParseInt(v.raw, 10, 64); err == nil {
		if n < math.MinInt32 || n > math.MaxInt32 {
			return 0, d.errAt(v.at, "%s out of range", what)
		}
		return int(n), nil
	}
	if v.num != math.Trunc(v.num) || math.Abs(v.num) > math.MaxInt32 {
		return 0, d.errAt(v.at, "%s must be an integer", what)
	}
	return int(v.num), nil
}

// parseDur reads a duration string: Go time.ParseDuration syntax plus a
// "Nd" days form ("30d", "1.5d").
func parseDur(s string) (time.Duration, error) {
	if rest, ok := strings.CutSuffix(s, "d"); ok {
		if f, err := strconv.ParseFloat(rest, 64); err == nil {
			ns := f * float64(24*time.Hour)
			if math.IsNaN(ns) || math.Abs(ns) >= math.MaxInt64 {
				return 0, fmt.Errorf("duration %q out of range", s)
			}
			return time.Duration(ns), nil
		}
	}
	return time.ParseDuration(s)
}

// quoteList renders names as `"a" or "b"` or `"a", "b", or "c"`.
func quoteList(names []string) string {
	q := make([]string, len(names))
	for i, n := range names {
		q[i] = strconv.Quote(n)
	}
	if len(q) < 3 {
		return strings.Join(q, " or ")
	}
	return strings.Join(q[:len(q)-1], ", ") + ", or " + q[len(q)-1]
}
