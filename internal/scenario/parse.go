package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// Error is a position-bearing scenario error. Line and Col are 1-based;
// Line 0 means the error has no useful position (e.g. a cross-field
// compile-time failure).
type Error struct {
	File string
	Line int
	Col  int
	Msg  string
}

// Error implements the error interface as "file:line:col: msg".
func (e *Error) Error() string {
	name := e.File
	if name == "" {
		name = "scenario"
	}
	if e.Line == 0 {
		return fmt.Sprintf("%s: %s", name, e.Msg)
	}
	return fmt.Sprintf("%s:%d:%d: %s", name, e.Line, e.Col, e.Msg)
}

// pos is a 1-based source position.
type pos struct {
	line, col int
}

type vkind int

const (
	vObj vkind = iota
	vArr
	vStr
	vNum
	vBool
	vNull
)

func (k vkind) String() string {
	switch k {
	case vObj:
		return "object"
	case vArr:
		return "array"
	case vStr:
		return "string"
	case vNum:
		return "number"
	case vBool:
		return "boolean"
	default:
		return "null"
	}
}

// value is one node of the positioned parse tree.
type value struct {
	at     pos
	kind   vkind
	fields []vfield // vObj, in source order
	items  []*value // vArr
	str    string   // vStr
	num    float64  // vNum
	raw    string   // vNum: the source token, for exact integer decoding
	boolv  bool     // vBool
}

// vfield is one object member; at is the key's position.
type vfield struct {
	key string
	at  pos
	val *value
}

// field returns the member named key, or nil.
func (v *value) field(key string) *value {
	for _, f := range v.fields {
		if f.key == key {
			return f.val
		}
	}
	return nil
}

// maxParseDepth bounds object/array nesting so hostile (fuzzer) inputs
// cannot build arbitrarily deep trees.
const maxParseDepth = 64

type parser struct {
	file string
	src  []byte // the input with its comments blanked
	// The position cursor: the last offset asked for, its line, and the
	// offset at which that line starts.
	off, line, lineStart int
}

// member names one key of one object, for the duplicate-key check.
type member struct {
	obj *value
	key string
}

// parseTree parses data into a positioned value tree. The grammar is
// strict JSON plus full-line or trailing `#` comments (the YAML-flavored
// authoring nicety). encoding/json reads the tokens from a copy of data
// whose comments are blanked to spaces, so its offsets are offsets into
// data. On top of the standard library's syntax, the parser rejects
// duplicate object keys, nesting deeper than maxParseDepth, invalid UTF-8
// and lone-surrogate escapes (both of which encoding/json would decode to
// U+FFFD), trailing data, and numbers outside float64's range.
func parseTree(data []byte, file string) (*value, error) {
	p := &parser{file: file, src: blankComments(data), line: 1}
	for i := 0; i < len(p.src); {
		r, n := utf8.DecodeRune(p.src[i:])
		if r == utf8.RuneError && n == 1 {
			return nil, p.errAt(i, "invalid UTF-8 byte %#x", p.src[i])
		}
		i += n
	}
	dec := json.NewDecoder(bytes.NewReader(p.src))
	dec.UseNumber()
	var open []*value // containers not yet closed, outermost first
	seen := make(map[member]bool)
	for {
		prev := int(dec.InputOffset())
		tok, err := dec.Token()
		if err != nil {
			return nil, p.syntaxError(err)
		}
		// The token starts after the separators the decoder skipped.
		start := len(p.src) - len(bytes.TrimLeft(p.src[prev:], " \t\r\n,:"))
		end := int(dec.InputOffset())
		var v *value
		if tok == json.Delim('}') || tok == json.Delim(']') {
			v, open = open[len(open)-1], open[:len(open)-1]
		} else if n := len(open); n > 0 && open[n-1].kind == vObj && awaitingKey(open[n-1]) {
			obj, key := open[n-1], tok.(string)
			if err := p.checkEscapes(key, start, end); err != nil {
				return nil, err
			}
			if seen[member{obj, key}] {
				return nil, p.errAt(start, "duplicate key %q", key)
			}
			seen[member{obj, key}] = true
			obj.fields = append(obj.fields, vfield{key: key, at: p.pos(start)})
			continue
		} else {
			if len(open) >= maxParseDepth {
				return nil, p.errAt(start, "nesting deeper than %d levels", maxParseDepth)
			}
			v = &value{at: p.pos(start)}
			switch t := tok.(type) {
			case json.Delim:
				v.kind = vArr
				if t == '{' {
					v.kind = vObj
				}
				open = append(open, v)
				continue
			case string:
				if err := p.checkEscapes(t, start, end); err != nil {
					return nil, err
				}
				v.kind, v.str = vStr, t
			case json.Number:
				f, err := strconv.ParseFloat(string(t), 64)
				if err != nil {
					return nil, p.errAt(start, "number out of range")
				}
				v.kind, v.num, v.raw = vNum, f, string(t)
			case bool:
				v.kind, v.boolv = vBool, t
			default:
				v.kind = vNull
			}
		}
		if len(open) == 0 {
			if rest := bytes.TrimLeft(p.src[end:], " \t\r\n"); len(rest) > 0 {
				return nil, p.errAt(len(p.src)-len(rest), "trailing data after scenario value")
			}
			return v, nil
		}
		if parent := open[len(open)-1]; parent.kind == vArr {
			parent.items = append(parent.items, v)
		} else {
			parent.fields[len(parent.fields)-1].val = v
		}
	}
}

// awaitingKey reports whether obj's next token is a key: every member
// read so far has its value.
func awaitingKey(obj *value) bool {
	return len(obj.fields) == 0 || obj.fields[len(obj.fields)-1].val != nil
}

// blankComments returns a copy of data in which every `#` comment outside
// a string, up to its line's end, is overwritten with spaces.
func blankComments(data []byte) []byte {
	src := bytes.Clone(data)
	inString := false
	for i := 0; i < len(src); i++ {
		switch c := src[i]; {
		case inString && c == '\\':
			i++
		case c == '"':
			inString = !inString
		case !inString && c == '#':
			for ; i < len(src) && src[i] != '\n'; i++ {
				src[i] = ' '
			}
		}
	}
	return src
}

// checkEscapes rejects a string token, src[start:end], that encoding/json
// decoded to s with a U+FFFD standing in for a \u escape that is half of a
// surrogate pair without its other half. The input is valid UTF-8, so a
// U+FFFD in s comes from such an escape, from a \ufffd escape, or from
// the character itself; only a string holding one is scanned.
func (p *parser) checkEscapes(s string, start, end int) error {
	if !bytes.ContainsRune([]byte(s), utf8.RuneError) {
		return nil
	}
	raw := p.src[start:end] // a string literal the decoder has checked
	hex := func(i int) rune {
		n, _ := strconv.ParseUint(string(raw[i:i+4]), 16, 32) // four hex digits
		return rune(n)
	}
	for i := 0; i < len(raw); i++ {
		if raw[i] != '\\' {
			continue
		}
		if raw[i+1] != 'u' {
			i++
			continue
		}
		if r := hex(i + 2); utf16.IsSurrogate(r) {
			if !bytes.HasPrefix(raw[i+6:], []byte(`\u`)) || utf16.DecodeRune(r, hex(i+8)) == utf8.RuneError {
				return p.errAt(start+i, "lone surrogate in \\u escape")
			}
			i += 6
		}
		i += 5
	}
	return nil
}

// syntaxError reports the input's first syntax error, where the decoder
// stopped with err. The decoder's own SyntaxError offsets count from the
// value it was reading, so json.Unmarshal re-scans the whole input: its
// Offset counts the bytes up to and including the offending one. A
// trailing space stands for the end of the input, so a document that stops
// short is reported one past its last byte.
func (p *parser) syntaxError(err error) error {
	var se *json.SyntaxError
	if !errors.As(json.Unmarshal(append(p.src[:len(p.src):len(p.src)], ' '), new(json.RawMessage)), &se) {
		return p.errAt(len(p.src), "%v", err)
	}
	return p.errAt(int(se.Offset)-1, "%s", se.Error())
}

func (p *parser) errAt(off int, format string, args ...any) error {
	at := p.pos(off)
	return &Error{File: p.file, Line: at.line, Col: at.col, Msg: fmt.Sprintf(format, args...)}
}

// pos returns the 1-based position of byte offset off. parseTree asks for
// offsets in increasing order (an error lies at or after the last token
// start it positioned), so the cursor moves forward over each newline once.
func (p *parser) pos(off int) pos {
	seg := p.src[p.off:off]
	if n := bytes.Count(seg, []byte{'\n'}); n > 0 {
		p.line += n
		p.lineStart = p.off + bytes.LastIndexByte(seg, '\n') + 1
	}
	p.off = off
	return pos{line: p.line, col: off - p.lineStart + 1}
}
