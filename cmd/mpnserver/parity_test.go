package main

import (
	"bytes"
	"flag"
	"io"
	"log"
	"reflect"
	"strings"
	"testing"

	"mpn"
	"mpn/internal/geom"
	"mpn/internal/roadnet"
)

// testFlags parses args as the command line would be.
func testFlags(t *testing.T, args ...string) (serverConfig, error) {
	t.Helper()
	fs := flag.NewFlagSet("mpnserver", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg, _, err := parseFlags(fs, args)
	cfg.logger = log.New(io.Discard, "", 0)
	return cfg, err
}

// TestParseFlags: there is one wire mode, so -delta is an unknown flag,
// and -method net loads no Euclidean POIs (its POIs are network nodes).
// -gnncache still parses and changes nothing: the benchmark's euclid_tile
// workload passes it until ROADMAP 9 drops it there.
func TestParseFlags(t *testing.T) {
	if _, err := testFlags(t, "-delta=false"); err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Fatalf("-delta: err %v, want an unknown flag", err)
	}
	cfg, err := testFlags(t, "-method", "net")
	if err != nil || cfg.pois != nil {
		t.Fatalf("-method net: %d POIs loaded (err %v)", len(cfg.pois), err)
	}
	withCache, err := testFlags(t, "-method", "net", "-gnncache", "8388608")
	if err != nil {
		t.Fatalf("-gnncache 8388608: %v", err)
	}
	cfg.logger, withCache.logger = nil, nil
	if !reflect.DeepEqual(cfg, withCache) {
		t.Fatalf("-gnncache changed the configuration: %+v, want %+v", withCache, cfg)
	}
}

// TestFrontEndParity: the library and the binary build their serving
// stacks through one constructor (internal/serving), each mapping its own
// options or flags onto it. At their defaults — α=30, b=100, θ=π/4, L=2,
// a POI on every 9th network node — both must plan the same group the
// same: one meeting point and byte-identical encoded regions, on
// registration, on the update after one member escapes and on the update
// after all three move. Neither front end passes headings, so under tiled
// both plan with the engine's derived ones; the last step's regions must
// then differ from a nil-heading plan, or parity would hold with both
// ignoring headings.
func TestFrontEndParity(t *testing.T) {
	netw, err := roadnet.Generate(roadnet.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var every9 []int
	for i := 0; i < netw.NumNodes(); i += 9 {
		every9 = append(every9, i)
	}
	methods := map[string]mpn.Option{
		"tiled":  mpn.WithMethod(mpn.TileDirected),
		"tile":   mpn.WithMethod(mpn.Tile),
		"circle": mpn.WithMethod(mpn.Circle),
		"net":    mpn.WithRoadNetwork(netw, every9),
	}
	aggs := map[string]mpn.Aggregate{"max": mpn.MinimizeMax, "sum": mpn.MinimizeSum}
	// A spread group: its regions are wide enough that b=90 or α=29 would
	// shape them differently.
	users := []geom.Point{geom.Pt(0.10, 0.10), geom.Pt(0.90, 0.85), geom.Pt(0.50, 0.20)}
	moved := []geom.Point{geom.Pt(0.30, 0.42), geom.Pt(0.90, 0.85), geom.Pt(0.50, 0.20)}
	allMoved := []geom.Point{geom.Pt(0.25, 0.50), geom.Pt(0.80, 0.70), geom.Pt(0.60, 0.30)}
	for _, method := range []string{"tiled", "tile", "circle", "net"} {
		for _, agg := range []string{"max", "sum"} {
			for _, incremental := range []bool{false, true} {
				name := method + "/" + agg
				args := []string{"-method", method, "-agg", agg, "-n", "2000"}
				opts := []mpn.Option{methods[method], mpn.WithAggregate(aggs[agg])}
				if incremental {
					name += "/incremental"
					args = append(args, "-incremental")
					opts = append(opts, mpn.WithIncremental())
				}
				t.Run(name, func(t *testing.T) {
					cfg, err := testFlags(t, args...)
					if err != nil {
						t.Fatal(err)
					}
					bin, err := newServer(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer bin.close()
					lib, err := mpn.NewServer(cfg.pois, opts...)
					if err != nil {
						t.Fatal(err)
					}
					defer lib.Close()

					id, err := bin.eng.Register(users, nil)
					if err != nil {
						t.Fatal(err)
					}
					g, err := lib.Register(users, nil)
					if err != nil {
						t.Fatal(err)
					}
					steps := [][]geom.Point{users, moved, allMoved}
					for step, locs := range steps {
						if step > 0 {
							if err := bin.eng.Update(id, locs, nil); err != nil {
								t.Fatal(err)
							}
							if err := g.Update(locs, nil); err != nil {
								t.Fatal(err)
							}
						}
						if bm, lm := bin.eng.Meeting(id), g.MeetingPoint(); bm != lm {
							t.Fatalf("step %d: binary meets at %v, library at %v", step, bm, lm)
						}
						br, lr := bin.eng.Regions(id), g.Regions()
						for i := range users {
							if !bytes.Equal(mpn.EncodeRegion(br[i]), mpn.EncodeRegion(lr[i])) {
								t.Fatalf("step %d: member %d's regions differ", step, i)
							}
						}
					}
					if method != "tiled" {
						return
					}
					_, undirected, _, err := lib.Plan(allMoved, nil)
					if err != nil {
						t.Fatal(err)
					}
					lr := g.Regions()
					for i := range allMoved {
						if !bytes.Equal(mpn.EncodeRegion(undirected[i]), mpn.EncodeRegion(lr[i])) {
							return
						}
					}
					t.Fatal("every member's region equals its nil-heading plan: headings were ignored")
				})
			}
		}
	}
}
