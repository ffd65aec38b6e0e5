package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/layout"
	"repro/internal/tech"
	"repro/internal/tiling"
)

// tileReq is a small stage-A work unit with one guaranteed metal2
// spacing violation (50nm gap against the 70nm rule); dx shifts the
// content so distinct requests get distinct keys.
func tileReq(dx int64) *tiling.TileRequest {
	return &tiling.TileRequest{
		Schema: tiling.TileSchema, Stage: tiling.StageTile,
		Tech: *tech.N45(), DRC: true,
		CoreW: 8000, CoreH: 8000, Pad: 2000,
		Shapes: []layout.Shape{
			{Layer: tech.Metal2, R: geom.R(1500, 1500+dx, 1800, 1570+dx)},
			{Layer: tech.Metal2, R: geom.R(1850, 1500+dx, 2150, 1570+dx)},
		},
	}
}

func TestTileJobLifecycle(t *testing.T) {
	s := New(Config{Workers: 2, Queue: 8, MaxWait: time.Hour})
	defer s.Shutdown(context.Background())

	st, _, err := s.submit(JobRequest{Kind: KindTile, Tile: tileReq(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(st.Key, "sha256:") {
		t.Fatalf("tile job key %q not content-addressed", st.Key)
	}
	fin, ok, err := s.wait(context.Background(), st.ID)
	if err != nil || !ok {
		t.Fatalf("wait: ok=%v err=%v", ok, err)
	}
	if fin.State != StateDone {
		t.Fatalf("tile job state = %q, want done", fin.State)
	}
	if fin.Kind != KindTile {
		t.Fatalf("tile job status kind = %q, want %q", fin.Kind, KindTile)
	}
	if fin.Result != nil {
		t.Fatalf("tile job carries a technique outcome: %+v", fin.Result)
	}
	if fin.Tile == nil || len(fin.Tile.Violations) == 0 {
		t.Fatalf("tile job settled without violations: %+v", fin.Tile)
	}

	// Identical unit: served from the content-addressed cache, result
	// included at submit time.
	st2, _, err := s.submit(JobRequest{Kind: KindTile, Tile: tileReq(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != StateDone || st2.Tile == nil {
		t.Fatalf("duplicate tile not a cache hit: %+v", st2)
	}
	if st2.Key != st.Key {
		t.Fatalf("same tile produced different keys: %s vs %s", st.Key, st2.Key)
	}

	// Shifted content: different key, fresh evaluation.
	st3, _, err := s.submit(JobRequest{Kind: KindTile, Tile: tileReq(100)})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Cached || st3.Key == st.Key {
		t.Fatalf("distinct tile aliased: %+v", st3)
	}

	// Tile results and technique outcomes share one cache; an eval job
	// must not collide with tile keys and vice versa.
	ste, _, err := s.submit(JobRequest{Technique: "sraf", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ste.Key == st.Key {
		t.Fatal("eval job aliased a tile key")
	}
	if ste.Kind != "" {
		t.Fatalf("eval job status kind = %q, want empty (wire compat)", ste.Kind)
	}
}

// Concurrent identical tiles collapse onto one in-flight evaluation.
func TestTileJobSingleflight(t *testing.T) {
	gate := make(chan struct{})
	cfg := Config{Workers: 1, Queue: 8, MaxWait: time.Hour}
	cfg.TaskFactory = func(req JobRequest) (harness.Task, error) {
		tr := req.Tile
		return harness.Task{Name: "tile/" + tr.Stage, Run: func(ctx context.Context, attempt int) (any, error) {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return tiling.ExecuteTile(ctx, tr)
		}}, nil
	}
	s := New(cfg)
	defer s.Shutdown(context.Background())

	lead, _, err := s.submit(JobRequest{Kind: KindTile, Tile: tileReq(0)})
	if err != nil {
		t.Fatal(err)
	}
	dup, _, err := s.submit(JobRequest{Kind: KindTile, Tile: tileReq(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Deduped {
		t.Fatalf("concurrent duplicate not deduped: %+v", dup)
	}
	close(gate)
	fin, ok, err := s.wait(context.Background(), lead.ID)
	if err != nil || !ok || fin.State != StateDone || fin.Tile == nil {
		t.Fatalf("lead tile job did not settle: ok=%v err=%v %+v", ok, err, fin)
	}
	// The follower settles from the leader's evaluation, tile result
	// included.
	fdup, ok, err := s.wait(context.Background(), dup.ID)
	if err != nil || !ok || fdup.State != StateDone || fdup.Tile == nil {
		t.Fatalf("deduped tile job did not settle with result: ok=%v err=%v %+v", ok, err, fdup)
	}
	if st := s.Stats(); st.CacheMisses != 1 {
		t.Fatalf("Stats.CacheMisses = %d, want 1 (one evaluation for two submits)", st.CacheMisses)
	}
	if st := s.Stats(); st.Deduped != 1 {
		t.Fatalf("Stats.Deduped = %d, want 1", st.Deduped)
	}
}

func TestTileJobValidation(t *testing.T) {
	s := New(Config{Workers: 1, Queue: 4, MaxWait: time.Hour})
	defer s.Shutdown(context.Background())

	if _, _, err := s.submit(JobRequest{Kind: KindTile}); err == nil {
		t.Error("tile job without payload accepted")
	}
	bad := tileReq(0)
	bad.Schema = tiling.TileSchema + 1
	if _, _, err := s.submit(JobRequest{Kind: KindTile, Tile: bad}); err == nil {
		t.Error("schema-skewed tile accepted")
	}
	_, _, err := s.submit(JobRequest{Kind: "banana", Technique: "sraf"})
	if err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("unknown kind error = %v, want mention of kind", err)
	}
	// Explicit KindEval is the typed spelling of the legacy default.
	st, _, err := s.submit(JobRequest{Kind: KindEval, Technique: "sraf", Seed: 3})
	if err != nil {
		t.Fatalf("explicit eval kind rejected: %v", err)
	}
	if st.Kind != "" {
		t.Errorf("explicit eval kind echoed as %q, want empty", st.Kind)
	}
}
