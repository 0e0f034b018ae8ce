package query

import (
	"strconv"
	"strings"
	"unicode"
)

// Lex tokenizes a query program. Comments (/* ... */ and -- to end of
// line) are skipped.
func Lex(src string) ([]Token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	// About five source bytes per token: size once, not doubling from nil.
	out := make([]Token, 0, len(src)/4+2)
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.Kind == EOF {
			return out, nil
		}
	}
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func (l *lexer) at() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.peek2() == '-':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.at()
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return errf(start, "unterminated comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || c == '.' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (l *lexer) next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := l.at()
	if l.pos >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isDigit(c):
		return l.lexNumberish(pos)
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		return Token{Kind: IDENT, Text: l.src[start:l.pos], Pos: pos}, nil
	case c == '"':
		return l.lexString(pos)
	default:
		// Multi-character operators first.
		for _, op := range []string{"<=", ">=", "!=", "=="} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.advance()
				l.advance()
				return Token{Kind: PUNCT, Text: op, Pos: pos}, nil
			}
		}
		switch c {
		case '(', ')', '[', ']', ',', ';', ':', '=', '*', '+', '/', '<', '>', '-':
			l.advance()
			return Token{Kind: PUNCT, Text: l.src[l.pos-1 : l.pos], Pos: pos}, nil
		}
		return Token{}, errf(pos, "unexpected character %q", string(c))
	}
}

func (l *lexer) lexString(pos Pos) (Token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.advance()
		switch c {
		case '"':
			return Token{Kind: STRING, Text: b.String(), Pos: pos}, nil
		case '\\':
			if l.pos >= len(l.src) {
				return Token{}, errf(pos, "unterminated string")
			}
			e := l.advance()
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				b.WriteByte(e)
			}
		case '\n':
			return Token{}, errf(pos, "newline in string literal")
		default:
			b.WriteByte(c)
		}
	}
	return Token{}, errf(pos, "unterminated string")
}

// lexNumberish scans a number and then decides whether it is a plain
// number, a duration (unit suffix, e.g. 5sec), or a timestamp
// (12-01-2020/12:00am).
func (l *lexer) lexNumberish(pos Pos) (Token, error) {
	// Timestamp lookahead: DD-MM-YYYY/h:mm(am|pm).
	if ts, n := matchTimestamp(l.src[l.pos:]); n > 0 {
		for i := 0; i < n; i++ {
			l.advance()
		}
		return Token{Kind: TIMESTAMP, Text: ts, Pos: pos}, nil
	}
	start := l.pos
	for l.pos < len(l.src) && (isDigit(l.peek()) || l.peek() == '.') {
		l.advance()
	}
	numText := l.src[start:l.pos]
	num, err := strconv.ParseFloat(numText, 64)
	if err != nil {
		return Token{}, errf(pos, "bad number %q: %v", numText, err)
	}
	// Unit suffix directly attached -> duration token.
	if l.pos < len(l.src) && isIdentStart(l.peek()) {
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		return Token{Kind: DURATION, Text: l.src[start:l.pos], Num: num, Pos: pos}, nil
	}
	return Token{Kind: NUMBER, Text: numText, Num: num, Pos: pos}, nil
}

// matchTimestamp reports whether s begins with a timestamp literal of
// the form MM-DD-YYYY/H:MM(am|pm) and returns its text and length.
func matchTimestamp(s string) (string, int) {
	// Minimal length: 1-1-2006/1:00am would be unusual; the canonical
	// form is zero-padded, but accept 1- or 2-digit date components.
	i := 0
	scanDigits := func(lo, hi int) bool {
		n := 0
		for i < len(s) && isDigit(s[i]) && n < hi {
			i++
			n++
		}
		return n >= lo
	}
	expect := func(c byte) bool {
		if i < len(s) && s[i] == c {
			i++
			return true
		}
		return false
	}
	if !scanDigits(1, 2) || !expect('-') {
		return "", 0
	}
	if !scanDigits(1, 2) || !expect('-') {
		return "", 0
	}
	if !scanDigits(4, 4) || !expect('/') {
		return "", 0
	}
	if !scanDigits(1, 2) || !expect(':') {
		return "", 0
	}
	if !scanDigits(2, 2) {
		return "", 0
	}
	if i+2 > len(s) {
		return "", 0
	}
	suffix := strings.ToLower(s[i : i+2])
	if suffix != "am" && suffix != "pm" {
		return "", 0
	}
	i += 2
	return s[:i], i
}

// parseDurationToken converts a DURATION token into either a frame
// count or a wall-clock duration.
func parseDurationToken(t Token) (frames int64, isFrames bool, seconds float64, err error) {
	text := t.Text
	j := 0
	for j < len(text) && (isDigit(text[j]) || text[j] == '.') {
		j++
	}
	unit := strings.ToLower(text[j:])
	switch unit {
	case "frame", "frames", "f":
		return int64(t.Num), true, 0, nil
	case "sec", "secs", "second", "seconds", "s":
		return 0, false, t.Num, nil
	case "min", "mins", "minute", "minutes", "m":
		return 0, false, t.Num * 60, nil
	case "hr", "hrs", "hour", "hours", "h":
		return 0, false, t.Num * 3600, nil
	case "day", "days", "d":
		return 0, false, t.Num * 86400, nil
	default:
		return 0, false, 0, errf(t.Pos, "unknown duration unit %q", unit)
	}
}
