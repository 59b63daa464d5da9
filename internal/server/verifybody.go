package server

import (
	"encoding/json"
	"strconv"
)

// decodeVerifyRequest decodes a /verify body into req exactly as
// json.Unmarshal does. A body of the canonical shape — what a client
// marshalling verifyRequest sends — is read directly: an object with at
// most one each of "n", "cycles" (a list of integer lists) and "demand"
// (printable ASCII with no escapes), plain integers and JSON whitespace.
// Every other body, including every malformed one, goes to json.Unmarshal
// unchanged, so the values accepted and the errors reported stay
// encoding/json's. FuzzVerifyBodyDecode pins the two together.
func decodeVerifyRequest(body []byte, req *verifyRequest) error {
	if readVerifyBody(body, req) {
		return nil
	}
	*req = verifyRequest{}
	return json.Unmarshal(body, req)
}

// maxBodyDigits bounds the integers the direct reader decodes: any
// number of that many digits fits an int (18 digits on a 64-bit int, 9
// on a 32-bit one), so json.Unmarshal would accept it too.
const maxBodyDigits = 9 * (strconv.IntSize / 32)

// readVerifyBody reads a canonical body into req and reports whether the
// body was canonical; req holds garbage when it was not.
func readVerifyBody(body []byte, req *verifyRequest) bool {
	s := bodyReader{b: body}
	if !s.eat('{') {
		return false
	}
	var seenN, seenCycles, seenDemand bool
	for first := true; !(first && s.eat('}')); first = false {
		key, ok := s.str()
		if !ok || !s.eat(':') {
			return false
		}
		switch string(key) {
		case "n":
			if seenN {
				return false
			}
			seenN = true
			if req.N, ok = s.int(); !ok {
				return false
			}
		case "cycles":
			if seenCycles {
				return false
			}
			seenCycles = true
			if req.Cycles, ok = s.cycles(); !ok {
				return false
			}
		case "demand":
			if seenDemand {
				return false
			}
			seenDemand = true
			v, ok := s.str()
			if !ok {
				return false
			}
			req.Demand = string(v)
		default:
			return false
		}
		if s.eat('}') {
			break
		}
		if !s.eat(',') {
			return false
		}
	}
	s.space()
	return s.i == len(s.b)
}

// bodyReader is a cursor over a /verify body.
type bodyReader struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *bodyReader) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c after any whitespace, reporting whether it was there.
func (s *bodyReader) eat(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str reads a string of printable ASCII with no escapes and returns its
// bytes, which alias the body.
func (s *bodyReader) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// int reads an integer of at most maxBodyDigits digits with no leading
// zero. A fraction or exponent after it is not consumed, so the caller's
// next expected byte fails to match.
func (s *bodyReader) int() (int, bool) {
	s.space()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start, v := s.i, 0
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		v = 10*v + int(s.b[s.i]-'0')
	}
	if digits := s.i - start; digits == 0 || digits > maxBodyDigits || (digits > 1 && s.b[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// cycles reads a list of integer lists. The lists are carved from one
// backing array; like json.Unmarshal, an empty list decodes as an empty,
// non-nil slice.
func (s *bodyReader) cycles() ([][]int, bool) {
	if !s.eat('[') {
		return nil, false
	}
	// A plan averages three to four bytes per vertex with separators
	// (3.4 on K_101), so a third of the remaining bytes usually holds
	// every vertex; the cap keeps a body that is mostly something else
	// from reserving more than it holds.
	flat := make([]int, 0, min((len(s.b)-s.i)/3, 1<<16))
	ends := make([]int, 0, cap(flat)/3)
	for first := true; !(first && s.eat(']')); first = false {
		if !s.eat('[') {
			return nil, false
		}
		for first := true; !(first && s.eat(']')); first = false {
			v, ok := s.int()
			if !ok {
				return nil, false
			}
			flat = append(flat, v)
			if s.eat(']') {
				break
			}
			if !s.eat(',') {
				return nil, false
			}
		}
		ends = append(ends, len(flat))
		if s.eat(']') {
			break
		}
		if !s.eat(',') {
			return nil, false
		}
	}
	out := make([][]int, len(ends))
	start := 0
	for i, end := range ends {
		out[i] = flat[start:end:end]
		start = end
	}
	return out, true
}
