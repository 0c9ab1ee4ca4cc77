package ledger

import (
	"encoding/json"
	"fmt"

	"repro/internal/blob"
	"repro/internal/coord"
)

// Offload moves a closed ledger's entries to the blob store — Pulsar's
// tiered storage (§4.3): hot data on bookies, older segments on cheap
// object storage, transparently readable. The bookies' copies are deleted;
// a reader opened with OpenTiered fetches the offload object once, paying
// blob-store latency instead of bookie latency.
func (s *System) Offload(ledgerID int64, store *blob.Store, bucket string) error {
	md, err := s.loadMeta(ledgerID)
	if err != nil {
		return err
	}
	if !md.Closed {
		return fmt.Errorf("%w: ledger %d", ErrNotClosed, ledgerID)
	}
	r := &Reader{sys: s, ledgerID: ledgerID, meta: md}
	entries, err := r.readAll()
	if err != nil {
		return err
	}
	payload, err := json.Marshal(entries) // [][]byte → base64 JSON array
	if err != nil {
		return err
	}
	key := fmt.Sprintf("ledgers/%d", ledgerID)
	if _, err := store.Put(bucket, key, payload, blob.PutOptions{}); err != nil {
		return err
	}
	md.Offloaded, md.Bucket, md.Key = true, bucket, key
	if _, err := s.meta.Set(metaPath(ledgerID), appendMeta(nil, md), coord.AnyVersion); err != nil {
		return err
	}
	s.dropEntries(ledgerID) // reclaim bookie space
	return nil
}

// OpenTiered opens a closed ledger wherever it lives: bookies for hot
// ledgers, the blob store for offloaded ones.
func (s *System) OpenTiered(ledgerID int64, store *blob.Store) (*Reader, error) {
	md, err := s.loadMeta(ledgerID)
	if err != nil {
		return nil, err
	}
	if !md.Closed {
		return nil, fmt.Errorf("%w: ledger %d", ErrNotClosed, ledgerID)
	}
	r := &Reader{sys: s, ledgerID: ledgerID, meta: md}
	if md.Offloaded {
		payload, _, err := store.Get(md.Bucket, md.Key)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(payload, &r.cold); err != nil {
			return nil, err
		}
	}
	return r, nil
}
