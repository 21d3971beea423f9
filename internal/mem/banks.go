package mem

// BankedDCache is the interleaved data-cache arrangement of Figure 1: a
// crossbar connects the processing units to twice as many data banks as
// there are units. Each bank is an 8 KB direct-mapped cache in 64-byte
// blocks and can start one request per cycle; requests to a busy bank
// queue (modeled by the bank's next-free cycle), which is the crossbar /
// bank-conflict contention the paper's tomcatv discussion blames for
// limiting the higher-issue configurations.
type BankedDCache struct {
	Banks []*Cache

	blockBytes uint32
	// blockShift and bankMask are BankOf without its two divisions, for
	// the usual power-of-two geometry (bankMask < 0 otherwise): every
	// data access starts there.
	blockShift, bankMask int
	nextFree             []uint64

	// Stats
	Conflicts uint64
	Accesses  uint64
}

// NewBankedDCache builds numBanks banks with the given per-bank geometry.
func NewBankedDCache(numBanks, bankBytes, blockBytes, hitLatency, numMSHRs int, bus *Bus) *BankedDCache {
	d := &BankedDCache{
		blockBytes: uint32(blockBytes),
		bankMask:   -1,
		nextFree:   make([]uint64, numBanks),
	}
	if shift, ok := log2OfPow2(blockBytes); ok && numBanks&(numBanks-1) == 0 {
		d.blockShift, d.bankMask = shift, numBanks-1
	}
	for i := 0; i < numBanks; i++ {
		c := NewCache("dbank", bankBytes, blockBytes, hitLatency, numMSHRs, bus)
		c.SetStride(numBanks)
		d.Banks = append(d.Banks, c)
	}
	return d
}

// BankOf returns the bank index serving addr (interleaved by block).
func (d *BankedDCache) BankOf(addr uint32) int {
	if d.bankMask >= 0 {
		return int(addr>>d.blockShift) & d.bankMask
	}
	return int(addr/d.blockBytes) % len(d.Banks)
}

// Access performs a load or store at cycle now, including crossbar/bank
// arbitration, and returns the completion cycle.
func (d *BankedDCache) Access(now uint64, addr uint32, write bool) (done uint64) {
	bank := d.BankOf(addr)
	start := now
	if d.nextFree[bank] > start {
		start = d.nextFree[bank]
		d.Conflicts++
	}
	d.nextFree[bank] = start + 1 // one new request per bank per cycle
	d.Accesses++
	return d.Banks[bank].Access(start, addr, write)
}

// Touch installs addr's tag in the owning bank without modeling timing
// (see Cache.Touch).
func (d *BankedDCache) Touch(addr uint32) {
	d.Banks[d.BankOf(addr)].Touch(addr)
}

// Reset clears bank occupancy and per-bank cache state.
func (d *BankedDCache) Reset() {
	for i := range d.nextFree {
		d.nextFree[i] = 0
	}
	for _, b := range d.Banks {
		b.Reset()
	}
	d.Conflicts, d.Accesses = 0, 0
}

// Hits and Misses aggregate across banks.
func (d *BankedDCache) Hits() uint64 {
	var n uint64
	for _, b := range d.Banks {
		n += b.Hits
	}
	return n
}

// Misses aggregates across banks.
func (d *BankedDCache) Misses() uint64 {
	var n uint64
	for _, b := range d.Banks {
		n += b.Misses
	}
	return n
}
