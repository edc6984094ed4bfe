package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/axnn"
	"repro/internal/store"
)

// openTestStore opens a store rooted at dir with small segments so the
// tests exercise rotation without megabytes of crafting.
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDiskTierColdProcessZeroRecraft is the tentpole acceptance test
// on the craft side: a brand-new Cache (the memory tier of a cold
// process) over a reopened warm store serves the same cell as a hit,
// bit-identical to the original crafting, with zero recompute.
func TestDiskTierColdProcessZeroRecraft(t *testing.T) {
	f := getFixture(t)
	test := f.test.Slice(40)
	atk := attack.ByName("PGD-linf")
	dir := t.TempDir()

	s1 := openTestStore(t, dir)
	warm := NewCache(CacheConfig{Disk: s1})
	ctx := context.Background()
	opts := Options{Seed: 9}
	b1, hit, err := warm.CraftedBatch(ctx, NewCraftTarget(f.net, test, atk), 0.1, opts)
	if err != nil || hit {
		t.Fatalf("first craft: hit=%v err=%v", hit, err)
	}
	st := warm.Stats()
	if st.DiskCraftMisses != 1 || st.DiskCraftHits != 0 {
		t.Fatalf("warm stats: %+v", st)
	}
	if st.DiskKeys == 0 || st.DiskBytes == 0 {
		t.Fatalf("write-through left no disk footprint: %+v", st)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Cold process": fresh memory tier, reopened store.
	s2 := openTestStore(t, dir)
	defer s2.Close()
	cold := NewCache(CacheConfig{Disk: s2})
	b2, hit, err := cold.CraftedBatch(ctx, NewCraftTarget(f.net, test, atk), 0.1, opts)
	if err != nil || !hit {
		t.Fatalf("cold craft: hit=%v err=%v", hit, err)
	}
	st = cold.Stats()
	if st.DiskCraftHits != 1 || st.DiskCraftMisses != 0 {
		t.Fatalf("cold stats: %+v", st)
	}
	if len(b1.Data) != len(b2.Data) {
		t.Fatalf("batch sizes differ: %d vs %d", len(b1.Data), len(b2.Data))
	}
	for i := range b1.Data {
		if b1.Data[i] != b2.Data[i] {
			t.Fatalf("disk-served batch differs at %d: %v vs %v", i, b1.Data[i], b2.Data[i])
		}
	}
	// Second lookup on the cold cache is now a memory hit: the disk
	// tier installs into the hot tier rather than re-probing.
	if _, hit, _ = cold.CraftedBatch(ctx, NewCraftTarget(f.net, test, atk), 0.1, opts); !hit {
		t.Fatal("disk hit did not install into the memory tier")
	}
	if st := cold.Stats(); st.DiskCraftHits != 1 {
		t.Fatalf("memory hit re-probed disk: %+v", st)
	}

	// Different seed is a different artifact: disk miss, recompute.
	if _, hit, _ = cold.CraftedBatch(ctx, NewCraftTarget(f.net, test, atk), 0.1, Options{Seed: 10}); hit {
		t.Fatal("seed change served a stale artifact")
	}
	if st := cold.Stats(); st.DiskCraftMisses != 1 {
		t.Fatalf("want 1 disk craft miss after seed change, got %+v", st)
	}
}

// TestDiskTierPredictions covers the prediction side: axnn victims key
// by configuration (ModelKey), so a freshly compiled equal-config
// victim in a new process hits the persisted predictions.
func TestDiskTierPredictions(t *testing.T) {
	f := getFixture(t)
	test := f.test.Slice(30)
	calib := test.Inputs(16)
	dir := t.TempDir()

	compile := func() *axnn.Network {
		v, err := axnn.Compile(f.net, calib, axnn.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	v1 := compile()
	v2 := compile()
	if v1.ModelKey() != v2.ModelKey() {
		t.Fatalf("equal-config compiles disagree on ModelKey:\n%s\n%s", v1.ModelKey(), v2.ModelKey())
	}
	if !strings.Contains(v1.ModelKey(), "mul=") {
		t.Fatalf("ModelKey misses multiplier: %s", v1.ModelKey())
	}

	ctx := context.Background()
	opts := Options{Seed: 4}
	s1 := openTestStore(t, dir)
	warm := NewCache(CacheConfig{Disk: s1})
	adv, _, err := warm.CraftedBatch(ctx, NewCraftTarget(f.net, test, attack.ByName("FGM-linf")), 0.05, opts)
	if err != nil {
		t.Fatal(err)
	}
	p1, hit, err := warm.Predictions(ctx, v1, adv, opts)
	if err != nil || hit {
		t.Fatalf("first predictions: hit=%v err=%v", hit, err)
	}
	if st := warm.Stats(); st.DiskPredMisses != 1 || st.DiskPredHits != 0 {
		t.Fatalf("warm pred stats: %+v", st)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir)
	defer s2.Close()
	cold := NewCache(CacheConfig{Disk: s2})
	// The crafted batch itself comes off disk; the prediction key hangs
	// off its content, so this works end to end from a cold start.
	adv2, hit, err := cold.CraftedBatch(ctx, NewCraftTarget(f.net, test, attack.ByName("FGM-linf")), 0.05, opts)
	if err != nil || !hit {
		t.Fatalf("cold craft: hit=%v err=%v", hit, err)
	}
	p2, hit, err := cold.Predictions(ctx, v2, adv2, opts)
	if err != nil || !hit {
		t.Fatalf("cold predictions: hit=%v err=%v", hit, err)
	}
	if st := cold.Stats(); st.DiskPredHits != 1 {
		t.Fatalf("cold pred stats: %+v", st)
	}
	if len(p1) != len(p2) {
		t.Fatalf("prediction lengths differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("disk-served prediction differs at %d: %d vs %d", i, p1[i], p2[i])
		}
	}
}

// TestDiskTierCorruptValueRecomputes pins the degrade path: a stored
// value that fails to decode counts a disk error and falls back to the
// compute path instead of surfacing an error or a bad tensor.
func TestDiskTierCorruptValueRecomputes(t *testing.T) {
	f := getFixture(t)
	test := f.test.Slice(20)
	atk := attack.ByName("FGM-linf")
	dir := t.TempDir()
	ctx := context.Background()
	opts := Options{Seed: 6}

	s1 := openTestStore(t, dir)
	warm := NewCache(CacheConfig{Disk: s1})
	b1, _, err := warm.CraftedBatch(ctx, NewCraftTarget(f.net, test, atk), 0.1, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Supersede the stored value with junk under the same key.
	var craftKeys []string
	if err := s1.Scan(func(key string, _ []byte) error {
		if strings.HasPrefix(key, "craft/v1|") {
			craftKeys = append(craftKeys, key)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(craftKeys) != 1 {
		t.Fatalf("want 1 craft record, found %d", len(craftKeys))
	}
	if err := s1.Put(craftKeys[0], []byte("not a tensor")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir)
	defer s2.Close()
	cold := NewCache(CacheConfig{Disk: s2})
	b2, hit, err := cold.CraftedBatch(ctx, NewCraftTarget(f.net, test, atk), 0.1, opts)
	if err != nil || hit {
		t.Fatalf("corrupt value should recompute: hit=%v err=%v", hit, err)
	}
	st := cold.Stats()
	if st.DiskErrors == 0 || st.DiskCraftMisses != 1 {
		t.Fatalf("corrupt value not accounted: %+v", st)
	}
	for i := range b1.Data {
		if b1.Data[i] != b2.Data[i] {
			t.Fatalf("recomputed batch differs at %d", i)
		}
	}
}

// TestMemoryOnlyCacheDiskStatsZero pins the default-off contract: a
// cache without a disk tier reports all-zero disk counters.
func TestMemoryOnlyCacheDiskStatsZero(t *testing.T) {
	c := NewCache(CacheConfig{})
	st := c.Stats()
	if st.DiskCraftHits != 0 || st.DiskCraftMisses != 0 || st.DiskPredHits != 0 ||
		st.DiskPredMisses != 0 || st.DiskErrors != 0 || st.DiskKeys != 0 || st.DiskBytes != 0 {
		t.Fatalf("memory-only cache has disk stats: %+v", st)
	}
}
