package experiments

import (
	"bytes"
	"unsafe"

	"pathdump/internal/cherrypick"
	"pathdump/internal/tib"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// StorageConfig parameterises the §5.3 storage-overhead measurement.
type StorageConfig struct {
	Records    int // TIB entries (default 240 000 ≈ one hour of flows)
	MemEntries int // live trajectory-memory records (default 4 000)
	CacheSize  int // trajectory-cache entries (default 4 096)
	Seed       int64
}

func (c StorageConfig) withDefaults() StorageConfig {
	if c.Records == 0 {
		c.Records = 240_000
	}
	if c.MemEntries == 0 {
		c.MemEntries = 4_000
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4_096
	}
	return c
}

// StorageResult reproduces the §5.3 storage numbers: the paper reports
// ~110 MB of disk for 240 K TIB entries and ~10 MB of RAM for decoding,
// trajectory memory and trajectory cache.
type StorageResult struct {
	Records        int
	SnapshotBytes  int     // serialised TIB size
	BytesPerRecord float64 // snapshot bytes / record
	// ApproxRAMBytes is the resident footprint of the hot state —
	// trajectory memory + trajectory cache at MemEntries/CacheEntries —
	// from the sizes of the structures that hold them (tib.MemEntryBytes,
	// tib.CacheEntryBytes and each path's hops), allocator and growth
	// slack excluded.
	MemEntries     int
	CacheEntries   int
	ApproxRAMBytes int
}

// Storage builds a paper-scale TIB and measures it.
func Storage(cfg StorageConfig) *StorageResult {
	cfg = cfg.withDefaults()
	topo, err := topology.FatTree(4)
	if err != nil {
		panic(err)
	}
	store := synthTIB(topo, cfg.Records, cfg.Seed+29)

	var buf bytes.Buffer
	if err := store.Snapshot(&buf); err != nil {
		panic(err)
	}
	res := &StorageResult{
		Records:        store.Len(),
		SnapshotBytes:  buf.Len(),
		BytesPerRecord: float64(buf.Len()) / float64(store.Len()),
	}

	// Hot-state footprint: populate a trajectory memory and cache at the
	// paper's load point and price each entry by its layout.
	mem := tib.NewMemory(0)
	cache := tib.NewCache(cfg.CacheSize)
	path := types.Path{0, 8, 16, 10, 2}
	for i := 0; i < cfg.MemEntries; i++ {
		f := types.FlowID{SrcIP: types.IP(i), DstIP: 1, SrcPort: uint16(i), DstPort: 80, Proto: 6}
		hdr := cherrypick.Header{VLANs: []uint16{uint16(i % 4096)}}
		mem.Update(types.Time(i), f, hdr, 1000, false)
		cache.Put(f.SrcIP, hdr.Pack(), path)
	}
	res.MemEntries = mem.Len()
	res.CacheEntries = cache.Len()
	pathBytes := len(path) * int(unsafe.Sizeof(path[0]))
	res.ApproxRAMBytes = res.MemEntries*tib.MemEntryBytes + res.CacheEntries*(tib.CacheEntryBytes+pathBytes)
	return res
}
