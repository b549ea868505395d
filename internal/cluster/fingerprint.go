package cluster

import "fmt"

// Fingerprint is a 128-bit structural identity of a Config, maintained
// incrementally (Zobrist-style) by the mutators: every (VM, host,
// CPU-bucket) placement, every powered-on host, and every (host,
// freq-bucket) DVFS setting contributes an independent pseudo-random
// 128-bit token, and the fingerprint is the XOR-fold of the tokens. Two
// configurations have equal fingerprints iff they have equal Key() strings
// (up to a ~2^-128 collision probability), but comparing fingerprints is
// two word compares instead of building and comparing two sorted strings.
// The bucket rounding deliberately mirrors Key(): CPU allocations at 0.01%
// and DVFS fractions at 0.001, so the fingerprint and the string key
// induce the same identity on configurations.
//
// Fingerprints are comparable and usable as map keys; the zero Fingerprint
// is the empty configuration (all hosts off, all VMs dormant).
type Fingerprint [2]uint64

// IsZero reports whether the fingerprint is the empty configuration's.
func (f Fingerprint) IsZero() bool { return f[0] == 0 && f[1] == 0 }

// String renders the fingerprint as 32 hex digits for display/provenance.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x%016x", f[0], f[1]) }

func (f *Fingerprint) xor(o Fingerprint) {
	f[0] ^= o[0]
	f[1] ^= o[1]
}

// Key()-compatible bucket rounding. These MUST stay in lockstep with the
// formatting in Config.Key: the property tests enforce fp-equal ⇔ Key-equal.
func cpuBucket(cpuPct float64) int64 { return int64(cpuPct*100 + 0.5) }
func freqBucket(f float64) int64     { return int64(f*1000 + 0.5) }

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// allocation-free bijective mixer with good avalanche behaviour.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// tokenHash folds a token's byte encoding with FNV-1a 64, then derives two
// independently mixed 64-bit lanes. Deterministic across runs and
// platforms, so fingerprints are stable identities for provenance.
type tokenHash uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211

	// Per-lane whitening seeds; arbitrary odd constants.
	laneSeed0 = 0x8e5b3c7d1a2f9e45
	laneSeed1 = 0x3c6ef372fe94f82b
)

func newTokenHash(kind byte) tokenHash {
	h := tokenHash(fnvOffset)
	return h.byte(kind)
}

func (h tokenHash) byte(b byte) tokenHash {
	return (h ^ tokenHash(b)) * fnvPrime
}

func (h tokenHash) string(s string) tokenHash {
	for i := 0; i < len(s); i++ {
		h = h.byte(s[i])
	}
	// Length-prefix-free separator: 0xff never appears in the names used
	// here (host names and VM IDs are ASCII), so "ab"+"c" != "a"+"bc".
	return h.byte(0xff)
}

func (h tokenHash) int64(v int64) tokenHash {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h = h.byte(byte(u >> (8 * i)))
	}
	return h
}

func (h tokenHash) fingerprint() Fingerprint {
	return Fingerprint{splitmix64(uint64(h) ^ laneSeed0), splitmix64(uint64(h) ^ laneSeed1)}
}

// Token kinds.
const (
	tokKindPlacement = 'P'
	tokKindHostOn    = 'H'
	tokKindFreq      = 'F'
)

func tokPlacement(id VMID, host string, cpu int64) Fingerprint {
	return newTokenHash(tokKindPlacement).string(string(id)).string(host).int64(cpu).fingerprint()
}

func tokHostOn(host string) Fingerprint {
	return newTokenHash(tokKindHostOn).string(host).fingerprint()
}

func tokFreq(host string, freq int64) Fingerprint {
	return newTokenHash(tokKindFreq).string(host).int64(freq).fingerprint()
}

// buildTokens computes the token prefixes View.FingerprintWith folds a
// staged action from: per (VM, host) the FNV state of a placement token up
// to its CPU bucket, per host the finished power token and the FNV state of
// a DVFS token up to its frequency bucket. Finishing a prefix gives exactly
// the token the by-name functions above build.
func (c *Catalog) buildTokens() {
	nh := len(c.hostNames)
	c.tokPlace = make([]tokenHash, len(c.vmIDs)*nh)
	for i, id := range c.vmIDs {
		pre := newTokenHash(tokKindPlacement).string(string(id))
		for h, host := range c.hostNames {
			c.tokPlace[i*nh+h] = pre.string(host)
		}
	}
	c.tokOn = make([]Fingerprint, nh)
	c.tokFreq = make([]tokenHash, nh)
	for h, host := range c.hostNames {
		c.tokOn[h] = tokHostOn(host)
		c.tokFreq[h] = newTokenHash(tokKindFreq).string(host)
	}
}

// Fingerprint returns the configuration's incrementally maintained
// structural hash. O(1): the mutators keep it in sync.
func (c Config) Fingerprint() Fingerprint { return c.fp }

// RecomputeFingerprint folds the fingerprint from scratch, ignoring the
// incrementally maintained value. It exists for tests and debug assertions;
// the property suite proves it always equals Fingerprint().
func (c Config) RecomputeFingerprint() Fingerprint {
	var fp Fingerprint
	for h, on := range c.hostOn {
		if on {
			fp.xor(tokHostOn(h))
		}
	}
	for id, p := range c.placements {
		fp.xor(tokPlacement(id, p.Host, cpuBucket(p.CPUPct)))
	}
	for h, f := range c.hostFreq {
		fp.xor(tokFreq(h, freqBucket(f)))
	}
	return fp
}

// Delta describes the single mutation one adaptation action makes to a
// configuration: at most one VM placement change, one host power change,
// and one DVFS change. Stage produces it without cloning the configuration;
// FingerprintWith and ApplyDelta consume it.
type Delta struct {
	// VM placement change; empty VM means none.
	VM        VMID
	OldPlaced bool
	Old       Placement
	NewPlaced bool
	New       Placement
	// Host power change; empty Host means none.
	Host string
	On   bool
	// DVFS change; empty FreqHost means none.
	FreqHost string
	NewFreq  float64
}

// FingerprintWith returns the fingerprint the configuration would have
// after applying the delta, in O(1), without materializing the child.
func (c Config) FingerprintWith(d Delta) Fingerprint {
	fp := c.fp
	if d.VM != "" {
		if d.OldPlaced {
			fp.xor(tokPlacement(d.VM, d.Old.Host, cpuBucket(d.Old.CPUPct)))
		}
		if d.NewPlaced {
			fp.xor(tokPlacement(d.VM, d.New.Host, cpuBucket(d.New.CPUPct)))
		}
	}
	if d.Host != "" && c.HostOn(d.Host) != d.On {
		fp.xor(tokHostOn(d.Host))
	}
	if d.FreqHost != "" {
		if old, ok := c.hostFreq[d.FreqHost]; ok {
			fp.xor(tokFreq(d.FreqHost, freqBucket(old)))
		}
		if d.NewFreq != 1 {
			fp.xor(tokFreq(d.FreqHost, freqBucket(d.NewFreq)))
		}
	}
	return fp
}

// ApplyDelta mutates the configuration through the fingerprint-maintaining
// mutators. The delta must have been staged against this configuration (or
// one with identical relevant state).
func (c *Config) ApplyDelta(d Delta) {
	if d.VM != "" {
		if d.NewPlaced {
			c.Place(d.VM, d.New.Host, d.New.CPUPct)
		} else {
			c.Unplace(d.VM)
		}
	}
	if d.Host != "" {
		c.SetHostOn(d.Host, d.On)
	}
	if d.FreqHost != "" {
		c.SetHostFreq(d.FreqHost, d.NewFreq)
	}
}

// PlacementOver reads a VM's placement as it would be after the delta:
// the overlay view search code uses to evaluate a child without
// materializing it.
func (c Config) PlacementOver(d *Delta, id VMID) (Placement, bool) {
	if d != nil && d.VM == id {
		return d.New, d.NewPlaced
	}
	return c.PlacementOf(id)
}

// HostOnOver reads a host's power state through the delta overlay.
func (c Config) HostOnOver(d *Delta, host string) bool {
	if d != nil && d.Host == host {
		return d.On
	}
	return c.HostOn(host)
}

// HostFreqOver reads a host's DVFS fraction through the delta overlay.
func (c Config) HostFreqOver(d *Delta, host string) float64 {
	if d != nil && d.FreqHost == host {
		return d.NewFreq
	}
	return c.HostFreq(host)
}
