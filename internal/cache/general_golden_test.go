package cache

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// generalGolden pins what the default pipeline answers for one general
// host: its cache signature, an FNV-1a hash of the cover's cycles (each
// cycle's vertices in stored order, in covering order), the cover's
// total length and its optimality claim. The values were recorded from
// the dense-host implementation; any change to host indexing, edge
// numbering, colouring order or search order shows up here.
var generalGolden = []struct {
	n       int
	spec    string
	sig     string
	cycles  uint64
	length  int
	optimal bool
}{
	{10, "petersen", "n=10;t=hae69921ddadb094f", 0xf73cdfdb755a848a, 21, true},
	{18, "blanusa:1", "n=18;t=h5bbed6ec2f121197", 0x354b874f2c5cbf4d, 36, true},
	{18, "blanusa:2", "n=18;t=hcd48a2715af62597", 0xb8653b7871fed8ed, 36, true},
	{20, "flower:5", "n=20;t=h3bd4c15ac7fada91", 0x91e3ecccf7530d8d, 40, true},
	{36, "flower:9", "n=36;t=hbf4ae8f61c79fee1", 0xe5ed524dcad2610c, 84, false},
	{84, "flower:21", "n=84;t=h5b3ea0ff48356f11", 0x34e697c9095b34f5, 252, false},
	{6, "prism:3", "n=6;t=hced5ee668e142303", 0xb39596ace5acebdd, 12, true},
	{60, "prism:30", "n=60;t=h5fb9a85e938eddf9", 0x4a50c5d7ac42c0b0, 120, true},
	{10, "cubic:1", "n=10;t=hf5a6632cba47590f", 0xaa1b2a780fd0fc3d, 20, true},
	{10, "cubic:2", "n=10;t=ha09d42ea6eff48cf", 0x4a304ca7a514ed4a, 20, true},
	{10, "cubic:3", "n=10;t=h03ed7388dfdfbd8f", 0xc30c8c832fa57285, 20, true},
	{44, "cubic:1", "n=44;t=h022bfd1f5d47f709", 0x338db5f363c22d12, 88, true},
	{44, "cubic:2", "n=44;t=hbb2b288fc4b7dd09", 0x04509368884b7361, 88, true},
	{44, "cubic:3", "n=44;t=h6075cb9172485269", 0x375b439167a4d7f8, 88, true},
	{80, "cubic:1", "n=80;t=hfa3e7417c9678f35", 0x5ad8eff7851174c5, 160, true},
	{80, "cubic:2", "n=80;t=hd0f0adfa8dd0f2f5", 0x5deccf72d0093de8, 160, true},
	{80, "cubic:3", "n=80;t=h6e102762a7758d35", 0xe43e015c5dfde819, 160, true},
	{120, "cubic:1", "n=120;t=h2be19e585bc16d9d", 0x46de7279eb8412d8, 240, true},
	{120, "cubic:2", "n=120;t=h02ff359b41a4bf9d", 0xfbf250b64eeaff5f, 240, true},
	{120, "cubic:3", "n=120;t=hfdf7f14065bb647d", 0x2eb36dd86d7a5e3c, 240, true},
	{1024, "cubic:1", "n=1024;t=ha70e76fd390d5ae1", 0x3589ca547847a473, 2048, true},
	{1024, "cubic:2", "n=1024;t=he125c5cb378a3ee1", 0xd296170c38358806, 2048, true},
	{1024, "cubic:3", "n=1024;t=h6d930d5592bc9a35", 0x8f301383940d185a, 2048, true},
	{5, "edges:0-1,0-1,1-2,2-0,2-3,3-4,4-2,3-4", "n=5;t=h309851147700afa0", 0xd5a340d00c3244c7, 6, true},
	{6, "adj:3,4,5;3,4,5;3,4,5;0,1,2;0,1,2;0,1,2", "n=6;t=hc9d206e6a5cf0123", 0x92b57745a9c1b135, 12, true},
}

// coverHash hashes a covering's cycles in order.
func coverHash(cv *cover.Covering) uint64 {
	h := fnv.New64a()
	for _, c := range cv.Cycles {
		fmt.Fprintf(h, "%v;", c.Vertices())
	}
	return h.Sum64()
}

func TestGeneralAnswersGolden(t *testing.T) {
	p := New(64)
	for _, tc := range generalGolden {
		in, err := instance.Parse(tc.n, tc.spec)
		if err != nil {
			t.Fatalf("%s (n=%d): %v", tc.spec, tc.n, err)
		}
		res, _, err := p.CoverCtx(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("%s (n=%d): %v", tc.spec, tc.n, err)
		}
		sig := Signature(in, Options{})
		got := fmt.Sprintf("%s %#016x %d %v", sig, coverHash(res.Covering), res.Covering.TotalLength(), res.Optimal)
		want := fmt.Sprintf("%s %#016x %d %v", tc.sig, tc.cycles, tc.length, tc.optimal)
		if got != want {
			t.Errorf("%s (n=%d): got %s, want %s", tc.spec, tc.n, got, want)
		}
	}
}
