package fault

import "testing"

func TestStreamSeedStableAndDistinct(t *testing.T) {
	if StreamSeed(7, "link0.a->") != StreamSeed(7, "link0.a->") {
		t.Fatal("StreamSeed not stable for identical inputs")
	}
	seen := map[uint64]string{}
	for _, name := range []string{"link0.a->", "link0.b->", "link1.a->", "mtbf:node"} {
		s := StreamSeed(7, name)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %q and %q", prev, name)
		}
		seen[s] = name
	}
	if StreamSeed(1, "x") == StreamSeed(2, "x") {
		t.Fatal("root seed does not change the stream")
	}
}
