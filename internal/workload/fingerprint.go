package workload

// FingerprintHash is a 64-bit FNV-1a hash state, the hash behind the
// deploy lifecycle's state fingerprints (dynamic.StateFingerprint).
// Integers are fed as 8 little-endian bytes and strings byte by byte, so
// the state matches hash/fnv's New64a fed the same bytes. It is a value:
// each method returns the advanced state.
type FingerprintHash uint64

const (
	fnvOffset64 FingerprintHash = 14695981039346656037
	fnvPrime64  FingerprintHash = 1099511628211

	// fingerprintTag opens every fingerprint's byte stream ("mcss").
	fingerprintTag = 0x6d637373
)

// Word feeds v as 8 little-endian bytes.
func (h FingerprintHash) Word(v int64) FingerprintHash {
	for i := 0; i < 64; i += 8 {
		h ^= FingerprintHash(byte(v >> i))
		h *= fnvPrime64
	}
	return h
}

// Text feeds the bytes of s.
func (h FingerprintHash) Text(s string) FingerprintHash {
	for i := 0; i < len(s); i++ {
		h ^= FingerprintHash(s[i])
		h *= fnvPrime64
	}
	return h
}

// FingerprintPrefix returns the fingerprint hash state after the domain
// tag and this workload's section: the topic, subscriber and pair counts,
// every rate, then each subscriber's topic count and topics. Names and
// region tags are not part of it. The state is computed on first use and
// memoized; concurrent callers share one computation.
func (w *Workload) FingerprintPrefix() FingerprintHash {
	w.fpOnce.Do(func() {
		h := fnvOffset64.Word(fingerprintTag)
		h = h.Word(int64(w.NumTopics())).Word(int64(w.NumSubscribers())).Word(w.NumPairs())
		for _, r := range w.rates {
			h = h.Word(r)
		}
		for v := 0; v < w.NumSubscribers(); v++ {
			ts := w.Topics(SubID(v))
			h = h.Word(int64(len(ts)))
			for _, t := range ts {
				h = h.Word(int64(t))
			}
		}
		w.fp = h
	})
	return w.fp
}
