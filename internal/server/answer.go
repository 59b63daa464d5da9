package server

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/scratch"
)

// Plan answers are the service's largest bodies: Theorem 1's cover of
// K_101 lists 1 275 cycles. They are written here byte for byte as
// encoding/json encodes planResponse, deltaResponse and batchPlanLine,
// with the cycles read in place from the cached covering — no [][]int,
// no reflection and no re-indent pass. FuzzPlanAnswerMatchesJSON pins
// both layouts to encoding/json. Every other answer goes through
// writeJSON.

// errNonFinite reports a cost encoding/json cannot encode either.
var errNonFinite = errors.New("server: non-finite cost")

// planBufs recycles the buffers plan answers are written into.
var planBufs = scratch.NewPool(func() *[]byte {
	b := make([]byte, 0, 4<<10)
	return &b
})

// writePlan answers 200 with a plan in writeJSON's layout: indented by
// two spaces per level, then a newline. tail, when non-nil, is
// /plan/delta's provenance, written after the plan's members as
// deltaResponse's. A non-finite cost answers writeJSON's clean 500.
func writePlan(w http.ResponseWriter, p *planResponse, tail *deltaTail) {
	bp := planBufs.Get()
	defer planBufs.Put(bp)
	aw := answerWriter{b: (*bp)[:0], indent: true}
	err := aw.plan(p, tail)
	*bp = aw.b
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	*bp = append(*bp, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(*bp)
}

// appendBatchLine appends one /plan/batch answer line — compact, as
// json.Encoder writes batchPlanLine, newline included. Like the encoder
// it appends nothing when the plan's cost is non-finite.
func appendBatchLine(b []byte, line *batchPlanLine) ([]byte, error) {
	aw := answerWriter{b: b}
	aw.open()
	aw.int("index", line.Index)
	if line.Plan != nil {
		aw.key("plan")
		if err := aw.plan(line.Plan, nil); err != nil {
			return b, err
		}
	}
	if line.Error != "" {
		aw.string("error", line.Error)
	}
	aw.close()
	return append(aw.b, '\n'), nil
}

// answerWriter appends JSON objects in one of encoding/json's two
// layouts: indented by two spaces per level
// (json.Encoder.SetIndent("", "  ")) or compact.
type answerWriter struct {
	b      []byte
	indent bool
	depth  int  // objects open
	first  bool // no member written yet in the innermost object
}

func (w *answerWriter) open() {
	w.b = append(w.b, '{')
	w.depth++
	w.first = true
}

// close ends an object. Every object an answer writes has members, so
// the indented layout always puts the brace on a new line.
func (w *answerWriter) close() {
	w.depth--
	if w.indent {
		w.b = append(w.b, commaLine[1:2+2*w.depth]...)
	}
	w.b = append(w.b, '}')
}

// key starts a member: a comma after the first, a new line at the
// current depth in the indented layout, then the key and the colon.
// Keys are this file's constants, which need no escaping.
func (w *answerWriter) key(k string) {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	if w.indent {
		w.b = append(w.b, commaLine[1:2+2*w.depth]...)
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':')
	if w.indent {
		w.b = append(w.b, ' ')
	}
}

func (w *answerWriter) int(k string, v int) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

func (w *answerWriter) bool(k string, v bool) {
	w.key(k)
	w.b = strconv.AppendBool(w.b, v)
}

func (w *answerWriter) string(k, v string) {
	w.key(k)
	w.b = appendJSONString(w.b, v)
}

// plan writes a planResponse object, its cycles read from p.cycles, and
// tail's members after its own. Members tagged omitempty are left out
// exactly when encoding/json leaves them out. On a non-finite cost it
// fails before writing anything.
func (w *answerWriter) plan(p *planResponse, tail *deltaTail) error {
	if math.IsInf(p.Cost, 0) || math.IsNaN(p.Cost) {
		return errNonFinite
	}
	w.open()
	w.string("signature", p.Signature)
	w.int("n", p.N)
	w.string("demand", p.Demand)
	if p.Strategy != "" {
		w.string("strategy", p.Strategy)
	}
	w.int("size", p.Size)
	if p.Rho != 0 {
		w.int("rho", p.Rho)
	}
	if p.Length != 0 {
		w.int("length", p.Length)
	}
	if p.SCCLowerBound != 0 {
		w.int("sccLowerBound", p.SCCLowerBound)
	}
	w.bool("optimal", p.Optimal)
	if p.Degraded {
		w.bool("degraded", true)
	}
	if p.Stale {
		w.bool("stale", true)
	}
	w.string("method", p.Method)
	w.key("cycles")
	w.cycles(p.cycles)
	w.int("wavelengths", p.Wavelengths)
	w.int("adms", p.ADMs)
	w.int("maxTransit", p.MaxTransit)
	w.key("cost")
	w.b = appendJSONFloat(w.b, p.Cost)
	w.bool("cacheHit", p.CacheHit)
	if tail != nil {
		w.string("parent", tail.Parent)
		w.string("delta", tail.Delta)
		w.bool("repaired", tail.Repaired)
	}
	w.close()
	return nil
}

// commaLine is a comma, a newline and the indent of five levels: its
// prefixes separate elements in either layout.
const commaLine = ",\n          "

// cycles writes the cycle list, always a list: an empty covering is [].
// The list is the bulk of a large answer, so the loop keeps the buffer
// in a local and writes each separator with one append: cycleSep before
// a cycle and vertexSep before a vertex, each without its comma when
// first; cycleSep[1:] also starts a non-empty cycle's closing line.
func (w *answerWriter) cycles(cs []cover.Cycle) {
	listEnd, cycleSep, vertexSep := "", commaLine[:1], commaLine[:1]
	if w.indent {
		listEnd = commaLine[1 : 2+2*w.depth]
		cycleSep = commaLine[:2+2*(w.depth+1)]
		vertexSep = commaLine[:2+2*(w.depth+2)]
	}
	b := append(w.b, '[')
	for i, c := range cs {
		if i > 0 {
			b = append(b, cycleSep...)
		} else {
			b = append(b, cycleSep[1:]...)
		}
		b = append(b, '[')
		for j, v := range c.Vertices() {
			if j > 0 {
				b = append(b, vertexSep...)
			} else {
				b = append(b, vertexSep[1:]...)
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		if c.Len() > 0 {
			b = append(b, cycleSep[1:]...)
		}
		b = append(b, ']')
	}
	if len(cs) > 0 {
		b = append(b, listEnd...)
	}
	w.b = append(b, ']')
}

// appendJSONFloat formats a finite float64 as encoding/json does: like
// ES6, %f between 1e-6 and 1e21, otherwise %e with a one-digit negative
// exponent left unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s as encoding/json does with HTML escaping on
// (json.Encoder's default): <, > and & as \u003c, \u003e and \u0026,
// control bytes as \b, \f, \n, \r, \t or \u00XX, invalid UTF-8 as
// \ufffd, and U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
