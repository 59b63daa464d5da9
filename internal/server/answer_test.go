package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
)

// FuzzPlanAnswerMatchesJSON pins the direct plan writer to encoding/json:
// for a plan answer built from fuzzed fields, writePlan must answer
// exactly what writeJSON answers for the same planResponse (status,
// headers and body, the clean 500 on a non-finite cost included), with
// and without /plan/delta's tail, and appendBatchLine must write exactly
// what /plan/batch's compact json.Encoder writes for a plan line and an
// error line. The cycles are ragged lists of arbitrary ints read from
// cyc: 0xff starts a new list.
func FuzzPlanAnswerMatchesJSON(f *testing.F) {
	k5 := []byte{0, 37, 74, 0xff, 0, 37, 111, 0xff, 37, 74, 111}
	f.Add("n=5;d=k1", "all-to-all K_5", "", "closed-form", "", 5, 6, 6, 0, 0, 12, 20, 1, 17.5, uint8(0b1001), k5, "", "", 0, "")
	f.Add("n=9;d=h00ff", "bad <n> & \"spec\"\n\t\b\f\r\x00\x1f\x7f", "greedy", "m\u2028\u2029", "x\xff\xfey", -3, 0, -1, 7, 9, -2, 0, 0, math.Copysign(0, -1), uint8(0b0110), []byte{}, "p<&>", "fail:2:7", 4, "shed: pool queue full, retry after 1s")
	f.Add("", "", "", "", "", 0, 0, 0, 0, 0, 0, 0, 0, 1e-7, uint8(0), []byte{0xff, 0xff}, "", "", 0, "")
	f.Add("s", "d", "", "m", "", 1, 2, 0, 0, 0, 0, 0, 0, 1e21, uint8(0b11111), []byte{200, 5}, "", "", -1, "\u00e9\U0001F600")
	f.Add("s", "d", "", "m", "", 1, 2, 0, 0, 0, 0, 0, 0, -1234.5678e-9, uint8(0), []byte{1}, "", "", 1, "e")
	f.Add("s", "d", "", "m", "", 1, 2, 0, 0, 0, 0, 0, 0, math.Inf(1), uint8(0), []byte{1}, "", "", 1, "")
	f.Add("s", "d", "", "m", "", 1, 2, 0, 0, 0, 0, 0, 0, math.NaN(), uint8(0), []byte{1}, "", "", 1, "")
	f.Fuzz(func(t *testing.T, sig, demand, strategy, method, parent string,
		n, size, rho, length, scc, wavelengths, adms, maxTransit int, cost float64, flags uint8,
		cyc []byte, delta, errText string, index int, sparse string) {
		p := planResponse{
			Signature: sig, N: n, Demand: demand, Strategy: strategy, Size: size, Rho: rho,
			Length: length, SCCLowerBound: scc, Optimal: flags&1 != 0, Degraded: flags&2 != 0,
			Stale: flags&4 != 0, Method: method, Wavelengths: wavelengths, ADMs: adms,
			MaxTransit: maxTransit, Cost: cost, CacheHit: flags&8 != 0,
			Cycles: [][]int{},
		}
		if len(cyc) > 0 {
			cur := []int{}
			for _, b := range cyc {
				if b == 0xff {
					p.Cycles = append(p.Cycles, cur)
					cur = []int{}
					continue
				}
				cur = append(cur, int(int8(b))*37)
			}
			p.Cycles = append(p.Cycles, cur)
		}
		for _, c := range p.Cycles {
			p.cycles = append(p.cycles, cover.CycleFromSortedVerts(c))
		}

		sameAnswer := func(name string, want, got *httptest.ResponseRecorder) {
			t.Helper()
			if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || got.Body.String() != want.Body.String() {
				t.Fatalf("%s: writer answered %d %v\n%s\nencoding/json answered %d %v\n%s",
					name, got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
			}
		}
		want, got := httptest.NewRecorder(), httptest.NewRecorder()
		writeJSON(want, http.StatusOK, p)
		writePlan(got, &p, nil)
		sameAnswer("plan", want, got)

		d := deltaResponse{planResponse: p, deltaTail: deltaTail{Parent: parent, Delta: delta, Repaired: flags&16 != 0}}
		want, got = httptest.NewRecorder(), httptest.NewRecorder()
		writeJSON(want, http.StatusOK, d)
		writePlan(got, &d.planResponse, &d.deltaTail)
		sameAnswer("delta", want, got)

		for _, line := range []batchPlanLine{{Index: index, Plan: &p}, {Index: index, Error: errText}, {Index: index, Error: sparse}} {
			var enc bytes.Buffer
			encErr := json.NewEncoder(&enc).Encode(line)
			out, err := appendBatchLine([]byte("prefix"), &line)
			if (err != nil) != (encErr != nil) || string(out) != "prefix"+enc.String() {
				t.Fatalf("batch line: writer wrote %q (err %v), json.Encoder %q (err %v)", out, err, enc.String(), encErr)
			}
		}
	})
}

// verifyBodyCases are /verify bodies with whether the direct reader
// takes them (true) or hands them to json.Unmarshal (false).
var verifyBodyCases = []struct {
	body   string
	direct bool
}{
	{`{"n":5,"cycles":[[0,1,2],[0,1,3],[0,2,3],[1,2,4],[0,3,4],[1,3,4],[2,3,4]],"demand":"alltoall"}`, true},
	{`{}`, true},
	{" \t\r\n{ \"demand\" : \"hub:3\" ,\n \"n\" : 12 , \"cycles\" : [ ] } \n", true},
	{`{"n":-0,"cycles":[[]]}`, true},
	{`{"cycles":[[],[7],[-3,123456789012345678]]}`, true},
	{`{"demand":"<&> ~"}`, true},
	{`{"N":5}`, false},
	{`{"n":5,"Cycles":[[0,1,2]]}`, false},
	{`{"n":5,"extra":1}`, false},
	{`{"n":5,"n":6}`, false},
	{`{"cycles":[[1]],"cycles":[[2,3]]}`, false},
	{`{"demand":"a","demand":"b"}`, false},
	{`{"n":01}`, false},
	{`{"n":1e2}`, false},
	{`{"n":1.0}`, false},
	{`{"n":-}`, false},
	{`{"n":1234567890123456789}`, false},
	{`{"cycles":[[1234567890123456789]]}`, false},
	{`{"n":99999999999999999999}`, false},
	{`{"cycles":null}`, false},
	{`{"n":null}`, false},
	{`{"cycles":[null]}`, false},
	{`{"n":"5"}`, false},
	{`{"cycles":[[0,1,"2"]]}`, false},
	{`{"demand":5}`, false},
	{`{"demand":"a\u0041"}`, false},
	{`{"demand":"a\"b"}`, false},
	{"{\"demand\":\"\u00e4\"}", false},
	{"{\"demand\":\"a\x01\"}", false},
	{`{"n":5}x`, false},
	{`{"n":5}{}`, false},
	{`{"n":5,}`, false},
	{`{"cycles":[[1,2,],[3]]}`, false},
	{`{"cycles":[[1,2]`, false},
	{`{"n":5`, false},
	{`[1,2]`, false},
	{``, false},
	{`null`, false},
}

// TestVerifyBodyReader pins which bodies the direct reader takes and
// that every body decodes as json.Unmarshal decodes it.
func TestVerifyBodyReader(t *testing.T) {
	for _, tc := range verifyBodyCases {
		var req verifyRequest
		if got := readVerifyBody([]byte(tc.body), &req); got != tc.direct {
			t.Errorf("%q: read directly %v, want %v", tc.body, got, tc.direct)
		}
		checkVerifyDecode(t, []byte(tc.body))
	}
}

// FuzzVerifyBodyDecode checks decodeVerifyRequest against json.Unmarshal
// on every input: both fail or neither, with the same error text and the
// same decoded value.
func FuzzVerifyBodyDecode(f *testing.F) {
	for _, tc := range verifyBodyCases {
		f.Add([]byte(tc.body))
	}
	s := New(Config{CacheSize: 8, Workers: 1})
	f.Cleanup(s.Close)
	for _, q := range []struct {
		n      int
		demand string
	}{{11, "alltoall"}, {10, "petersen"}} {
		resp, _, err := s.planOne(context.Background(), q.n, q.demand, "")
		if err != nil {
			f.Fatal(err)
		}
		req := verifyRequest{N: q.n, Demand: q.demand}
		for _, c := range resp.cycles {
			req.Cycles = append(req.Cycles, c.Vertices())
		}
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(checkVerifyDecode)
}

func checkVerifyDecode(t *testing.T, body []byte) {
	t.Helper()
	var got, want verifyRequest
	gotErr := decodeVerifyRequest(body, &got)
	wantErr := json.Unmarshal(body, &want)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%q: decoded with error %v, json.Unmarshal with %v", body, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded %#v, json.Unmarshal %#v", body, got, want)
	}
}
