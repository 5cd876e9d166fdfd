package core

import "testing"

func TestFreeListReuseAndZeroing(t *testing.T) {
	a := newScratchArena(0)
	sb, release := a.acquire(-1)
	defer release()

	s := sb.getF64(64)
	if len(s) != 64 {
		t.Fatalf("len = %d, want 64", len(s))
	}
	for i := range s {
		s[i] = float64(i) + 1
	}
	p := &s[0]
	sb.putF64(s)

	got := sb.getF64(32)
	if &got[0] != p {
		t.Fatalf("expected the recycled backing array to be reused")
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}
	if st := a.stats(); st.Gets != 2 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 gets / 1 hit / 1 miss", st)
	}
}

func TestFreeListPrefersMostRecent(t *testing.T) {
	a := newScratchArena(0)
	sb, release := a.acquire(-1)
	defer release()

	first := sb.getF64(16)
	second := sb.getF64(16)
	p1, p2 := &first[0], &second[0]
	sb.putF64(first)
	sb.putF64(second)
	if got := sb.getF64(16); &got[0] != p2 {
		t.Fatalf("expected LIFO reuse of the last returned buffer")
	}
	if got := sb.getF64(16); &got[0] != p1 {
		t.Fatalf("expected the older buffer next")
	}
}

func TestFreeListSkipsTooSmall(t *testing.T) {
	a := newScratchArena(0)
	sb, release := a.acquire(-1)
	defer release()

	small := sb.getInt(4)
	sb.putInt(small)
	big := sb.getInt(1024) // small buffer can't serve this
	if cap(big) < 1024 {
		t.Fatalf("cap = %d, want >= 1024", cap(big))
	}
	if st := a.stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (both gets had to allocate)", st.Misses)
	}
}

func TestAcquirePerWorkerIdentity(t *testing.T) {
	a := newScratchArena(3)
	b0, rel0 := a.acquire(0)
	b0again, rel0again := a.acquire(0)
	b1, rel1 := a.acquire(1)
	defer rel0()
	defer rel0again()
	defer rel1()
	if b0 != b0again {
		t.Fatalf("acquire(0) must return the same per-worker buffer")
	}
	if b0 == b1 {
		t.Fatalf("workers 0 and 1 must not share a buffer")
	}
	if b0.lanes() != 3 {
		t.Fatalf("lanes = %d, want 3", b0.lanes())
	}
}

func TestAcquirePooledPathRoundTrips(t *testing.T) {
	a := newScratchArena(2)
	sb, release := a.acquire(-1)
	for i := 0; i < 2; i++ {
		if sb == &a.perWorker[i] {
			t.Fatalf("pooled acquire must not hand out a per-worker buffer")
		}
	}
	// Warm the buffer, return it, and re-acquire: the free list travels
	// with the scratchBuf through the sync.Pool.
	s := sb.getF64(8)
	sb.putF64(s)
	release()
	sb2, release2 := a.acquire(-1)
	defer release2()
	if sb2 != sb {
		// sync.Pool may drop entries; only check behavior when it kept it.
		t.Skip("sync.Pool did not return the same buffer")
	}
	before := a.stats()
	sb2.putF64(sb2.getF64(8))
	if d := a.stats().Delta(before); d.Misses != 0 {
		t.Fatalf("re-acquired pooled buffer lost its free list: %+v", d)
	}
}

func TestPutVecsDropsReferences(t *testing.T) {
	a := newScratchArena(0)
	sb, release := a.acquire(-1)
	defer release()

	vecs := sb.getVecs(4)
	vecs[2] = []float64{1, 2, 3}
	sb.putVecs(vecs)
	got := sb.getVecs(4)
	for i, v := range got {
		if v != nil {
			t.Fatalf("recycled vec holder still pins a vector at %d", i)
		}
	}
}

func TestLevelEvensOutWorkerFreeLists(t *testing.T) {
	a := newScratchArena(3)
	a.perWorker[0].putF64(make([]float64, 8))
	a.perWorker[0].putF64(make([]float64, 8))
	a.perWorker[1].putF64(make([]float64, 16))
	a.perWorker[2].putI32(make([]int32, 4))
	a.level()
	for i := range a.perWorker {
		sb := &a.perWorker[i]
		if got := sb.f64.capCounts(); len(got) != 2 || got[8] != 2 || got[16] != 1 {
			t.Fatalf("worker %d float64 caps %v, want two of 8 and one of 16", i, got)
		}
		if got := sb.i32.capCounts(); len(got) != 1 || got[4] != 1 {
			t.Fatalf("worker %d int32 caps %v, want one of 4", i, got)
		}
	}
	// Levelling a level arena changes nothing.
	a.level()
	if got := len(a.perWorker[1].f64.free); got != 3 {
		t.Fatalf("second level grew worker 1 to %d float64 buffers, want 3", got)
	}
	// A worker that held nothing now serves the richest worker's
	// requests from its own list.
	before := a.stats()
	sb := &a.perWorker[2]
	sb.getF64(8)
	sb.getF64(8)
	sb.getF64(16)
	if d := a.stats().Delta(before); d.Misses != 0 {
		t.Fatalf("levelled worker missed %d requests", d.Misses)
	}
}
