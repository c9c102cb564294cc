package scenario

import (
	"fmt"
	"strconv"
	"strings"
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
// cannot overflow the stack.
const maxParseDepth = 64

type parser struct {
	file  string
	data  []byte
	i     int
	line  int
	col   int
	depth int
}

// parseTree parses data into a positioned value tree. The grammar is
// strict JSON plus full-line or trailing `#` comments (the YAML-flavored
// authoring nicety); duplicate object keys, trailing commas, and invalid
// UTF-8 inside strings are rejected.
func parseTree(data []byte, file string) (*value, error) {
	p := &parser{file: file, data: data, line: 1, col: 1}
	v, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.i < len(p.data) {
		return nil, p.errHere("trailing data after scenario value")
	}
	return v, nil
}

func (p *parser) errHere(format string, args ...any) error {
	return &Error{File: p.file, Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) errAt(at pos, format string, args ...any) error {
	return &Error{File: p.file, Line: at.line, Col: at.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) pos() pos { return pos{line: p.line, col: p.col} }

// advance consumes one byte, tracking line/column.
func (p *parser) advance() byte {
	c := p.data[p.i]
	p.i++
	if c == '\n' {
		p.line++
		p.col = 1
	} else {
		p.col++
	}
	return c
}

func (p *parser) skipSpace() {
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case ' ', '\t', '\r', '\n':
			p.advance()
		case '#':
			for p.i < len(p.data) && p.data[p.i] != '\n' {
				p.advance()
			}
		default:
			return
		}
	}
}

func (p *parser) parseValue() (*value, error) {
	if p.depth >= maxParseDepth {
		return nil, p.errHere("nesting deeper than %d levels", maxParseDepth)
	}
	p.depth++
	defer func() { p.depth-- }()
	p.skipSpace()
	if p.i >= len(p.data) {
		return nil, p.errHere("unexpected end of input")
	}
	at := p.pos()
	switch c := p.data[p.i]; {
	case c == '{':
		return p.parseObject(at)
	case c == '[':
		return p.parseArray(at)
	case c == '"':
		s, err := p.parseString()
		if err != nil {
			return nil, err
		}
		return &value{at: at, kind: vStr, str: s}, nil
	case c == 't' || c == 'f':
		word := "true"
		if c == 'f' {
			word = "false"
		}
		if err := p.expectWord(word); err != nil {
			return nil, err
		}
		return &value{at: at, kind: vBool, boolv: c == 't'}, nil
	case c == 'n':
		if err := p.expectWord("null"); err != nil {
			return nil, err
		}
		return &value{at: at, kind: vNull}, nil
	case c == '-' || (c >= '0' && c <= '9'):
		return p.parseNumber(at)
	default:
		return nil, p.errHere("unexpected character %q", c)
	}
}

func (p *parser) expectWord(word string) error {
	if !strings.HasPrefix(string(p.data[p.i:]), word) {
		return p.errHere("invalid literal (expected %q)", word)
	}
	for range word {
		p.advance()
	}
	return nil
}

func (p *parser) parseObject(at pos) (*value, error) {
	p.advance() // '{'
	v := &value{at: at, kind: vObj}
	seen := make(map[string]bool)
	p.skipSpace()
	if p.i < len(p.data) && p.data[p.i] == '}' {
		p.advance()
		return v, nil
	}
	for {
		p.skipSpace()
		if p.i >= len(p.data) || p.data[p.i] != '"' {
			return nil, p.errHere("expected object key string")
		}
		keyAt := p.pos()
		key, err := p.parseString()
		if err != nil {
			return nil, err
		}
		if seen[key] {
			return nil, p.errAt(keyAt, "duplicate key %q", key)
		}
		seen[key] = true
		p.skipSpace()
		if p.i >= len(p.data) || p.data[p.i] != ':' {
			return nil, p.errHere("expected ':' after object key")
		}
		p.advance()
		val, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		v.fields = append(v.fields, vfield{key: key, at: keyAt, val: val})
		p.skipSpace()
		if p.i >= len(p.data) {
			return nil, p.errHere("unterminated object")
		}
		switch p.data[p.i] {
		case ',':
			p.advance()
		case '}':
			p.advance()
			return v, nil
		default:
			return nil, p.errHere("expected ',' or '}' in object")
		}
	}
}

func (p *parser) parseArray(at pos) (*value, error) {
	p.advance() // '['
	v := &value{at: at, kind: vArr}
	p.skipSpace()
	if p.i < len(p.data) && p.data[p.i] == ']' {
		p.advance()
		return v, nil
	}
	for {
		item, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		v.items = append(v.items, item)
		p.skipSpace()
		if p.i >= len(p.data) {
			return nil, p.errHere("unterminated array")
		}
		switch p.data[p.i] {
		case ',':
			p.advance()
		case ']':
			p.advance()
			return v, nil
		default:
			return nil, p.errHere("expected ',' or ']' in array")
		}
	}
}

func (p *parser) parseString() (string, error) {
	p.advance() // opening '"'
	var b strings.Builder
	for {
		if p.i >= len(p.data) {
			return "", p.errHere("unterminated string")
		}
		c := p.data[p.i]
		switch {
		case c == '"':
			p.advance()
			return b.String(), nil
		case c == '\\':
			p.advance()
			if p.i >= len(p.data) {
				return "", p.errHere("unterminated escape")
			}
			e := p.advance()
			switch e {
			case '"', '\\', '/':
				b.WriteByte(e)
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case 'u':
				r, err := p.parseUnicodeEscape()
				if err != nil {
					return "", err
				}
				b.WriteRune(r)
			default:
				return "", p.errHere("invalid escape character %q", e)
			}
		case c < 0x20:
			return "", p.errHere("raw control character in string")
		case c < utf8.RuneSelf:
			p.advance()
			b.WriteByte(c)
		default:
			r, size := utf8.DecodeRune(p.data[p.i:])
			if r == utf8.RuneError && size == 1 {
				return "", p.errHere("invalid UTF-8 in string")
			}
			for j := 0; j < size; j++ {
				p.advance()
			}
			b.WriteRune(r)
		}
	}
}

// parseUnicodeEscape reads the XXXX of a \uXXXX escape (the backslash and
// 'u' are already consumed), combining surrogate pairs; lone surrogates
// are rejected so every parsed string is valid UTF-8.
func (p *parser) parseUnicodeEscape() (rune, error) {
	hi, err := p.parseHex4()
	if err != nil {
		return 0, err
	}
	if !utf16.IsSurrogate(rune(hi)) {
		return rune(hi), nil
	}
	if p.i+1 >= len(p.data) || p.data[p.i] != '\\' || p.data[p.i+1] != 'u' {
		return 0, p.errHere("lone surrogate in \\u escape")
	}
	p.advance()
	p.advance()
	lo, err := p.parseHex4()
	if err != nil {
		return 0, err
	}
	r := utf16.DecodeRune(rune(hi), rune(lo))
	if r == utf8.RuneError {
		return 0, p.errHere("invalid surrogate pair in \\u escape")
	}
	return r, nil
}

func (p *parser) parseHex4() (uint32, error) {
	var x uint32
	for j := 0; j < 4; j++ {
		if p.i >= len(p.data) {
			return 0, p.errHere("unterminated \\u escape")
		}
		c := p.advance()
		switch {
		case c >= '0' && c <= '9':
			x = x<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			x = x<<4 | uint32(c-'a'+10)
		case c >= 'A' && c <= 'F':
			x = x<<4 | uint32(c-'A'+10)
		default:
			return 0, p.errHere("invalid hex digit %q in \\u escape", c)
		}
	}
	return x, nil
}

func (p *parser) parseNumber(at pos) (*value, error) {
	start := p.i
	if p.data[p.i] == '-' {
		p.advance()
	}
	digits := func() bool {
		n := 0
		for p.i < len(p.data) && p.data[p.i] >= '0' && p.data[p.i] <= '9' {
			p.advance()
			n++
		}
		return n > 0
	}
	// Integer part: either a single 0 or a nonzero-led digit run.
	if p.i < len(p.data) && p.data[p.i] == '0' {
		p.advance()
	} else if !digits() {
		return nil, p.errAt(at, "invalid number")
	}
	if p.i < len(p.data) && p.data[p.i] == '.' {
		p.advance()
		if !digits() {
			return nil, p.errAt(at, "invalid number (missing fraction digits)")
		}
	}
	if p.i < len(p.data) && (p.data[p.i] == 'e' || p.data[p.i] == 'E') {
		p.advance()
		if p.i < len(p.data) && (p.data[p.i] == '+' || p.data[p.i] == '-') {
			p.advance()
		}
		if !digits() {
			return nil, p.errAt(at, "invalid number (missing exponent digits)")
		}
	}
	raw := string(p.data[start:p.i])
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return nil, p.errAt(at, "number out of range")
	}
	return &value{at: at, kind: vNum, num: f, raw: raw}, nil
}
