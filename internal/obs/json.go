package obs

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string, escaped as json.Marshal
// escapes it: HTML-safe (<, > and & as six-byte \u00XX escapes),
// U+2028/U+2029 escaped, invalid UTF-8 replaced by U+FFFD.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			i++
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				continue
			}
			b = append(b, s[start:i-1]...)
			if k := strings.IndexByte("\\\"\b\f\n\r\t", c); k >= 0 {
				b = append(b, '\\', `\"bfnrt`[k])
			} else {
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		i += size
		if r == utf8.RuneError && size == 1 {
			b = append(append(b, s[start:i-size]...), '\\', 'u', 'f', 'f', 'f', 'd')
			start = i
		} else if r == 0x2028 || r == 0x2029 { // LINE and PARAGRAPH SEPARATOR
			b = append(append(b, s[start:i-size]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i
		}
	}
	return append(append(b, s[start:]...), '"')
}

// AppendJSONFloat appends f as json.Marshal formats a float64: 'f'
// notation, 'e' below 1e-6 and from 1e21 on (with e-07 shortened to
// e-7). NaN and ±Inf are errors, with json.Marshal's message.
func AppendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	if abs := math.Abs(f); abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64), nil
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// AppendJSONTime appends t as its JSON string (RFC 3339 with
// nanoseconds, as time.Time.MarshalJSON writes it). Times RFC 3339
// cannot represent are errors, with json.Marshal's message.
func AppendJSONTime(b []byte, t time.Time) ([]byte, error) {
	out, err := t.AppendText(append(b, '"'))
	if err != nil {
		_, err = t.MarshalJSON()
		return b, fmt.Errorf("json: error calling MarshalJSON for type time.Time: %w", err)
	}
	return append(out, '"'), nil
}
