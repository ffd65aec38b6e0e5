package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/dfm"
	"repro/internal/tech"
)

func TestRequestKeyDeterministicAndDiscriminating(t *testing.T) {
	k1 := requestKey("sraf", 11)
	if k2 := requestKey("sraf", 11); k1 != k2 {
		t.Fatalf("same request hashed differently: %s vs %s", k1, k2)
	}
	// A content address is a cache entry other nodes and older clients
	// hold: pinned, so a change to the payload is a deliberate
	// keySchema bump, not a silent drift.
	if want := "sha256:f43180ee9a3ddcdefdc4645b20518c4b6338a139c661e0b6267b8461cc97d828"; k1 != want {
		t.Fatalf("sraf/11 key = %s, want %s", k1, want)
	}

	variants := map[string]string{
		"technique": requestKey("dummy-fill", 11),
		"seed":      requestKey("sraf", 12),
	}
	seen := map[string]string{k1: "base"}
	for what, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s collided with %s: %s", what, prev, k)
		}
		seen[k] = what
	}
}

// TestRequestKeySeesTechParamDrift: content addressing keys on the
// node's parameters, not its name. requestKey hashes the whole
// *tech.N45() and the default block, so a node or block retuned in code
// is different work.
func TestRequestKeySeesTechParamDrift(t *testing.T) {
	base := dfm.DefaultBlock()
	p := keyPayload{
		Schema: keySchema, Technique: "sraf", Tech: *tech.N45(), Seed: 1,
		Rows: base.Rows, RowWidth: base.RowWidth, Nets: base.Nets, MaxFan: base.MaxFan,
	}
	sum := func(p keyPayload) string {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		s := sha256.Sum256(b)
		return "sha256:" + hex.EncodeToString(s[:])
	}
	key := requestKey("sraf", 1)
	if want := sum(p); key != want {
		t.Fatalf("requestKey = %s, want the hash of the full N45 payload %s", key, want)
	}
	p.Tech.Optics.Threshold += 0.01
	if sum(p) == key {
		t.Fatal("tech parameter change did not change the key")
	}
}
