package snapshot

// ReadHeader reads a snapshot's header through the loader every Load
// starts with, without decoding the body.
func ReadHeader(data []byte) (Meta, error) {
	_, meta, err := newLoader(data)
	return meta, err
}

// KindAt is the offset of the header byte that holds the kind.
const KindAt = len(magic) + 2
