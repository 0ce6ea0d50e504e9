package cluster

import (
	"testing"

	"botscope/internal/binenc"
	"botscope/internal/stream"
	"botscope/internal/synth"
)

// BenchmarkWireCodec budgets the payload walks where the pipeline cannot
// see them: a 5,000-record scale-0.1 feed cut into the ingestChunk-record
// chunks the frontend fans out, each encoded as one shard of two receives
// it (its owned half of the records' keys, plus the chunk's length and
// horizon), each way, and the snapshot of a shard that owns the whole
// store there and back.
// Encode reuses its buffer and allocates nothing; decode allocates what the
// message holds (each payload's entry slice; a record and its family
// string) and nothing for the walk itself — a closure or method value per
// field shows up here as allocs/op, not downstream as alloc_mb_per_pass.
func BenchmarkWireCodec(b *testing.B) {
	store, err := synth.GenerateStore(synth.Config{Seed: 1, Scale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	attacks := store.Attacks()
	var batches []ingestBatch
	var payloads [][]byte
	longest := 0
	for from := 0; from < 5000; from += ingestChunk {
		chunk := attacks[from:min(from+ingestChunk, 5000)]
		batch := ingestBatch{Covered: uint64(len(chunk)), Horizon: chunk[len(chunk)-1].Start}
		for i, a := range chunk {
			if i%2 == 0 {
				batch.Entries = append(batch.Entries, IngestEntry{Seq: uint64(from + i + 1), Record: a})
			}
		}
		batches = append(batches, batch)
		payloads = append(payloads, encodeMsg(wireIngest, &batch))
		longest = max(longest, len(payloads[len(payloads)-1]))
	}
	part := stream.NewPartition()
	for i, a := range attacks {
		if err := part.Ingest(a, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
		part.Advance(1, a.Start)
	}
	snap := ShardSnapshot{ShardID: 1, Applied: uint64(len(attacks)), Snap: part.Snapshot()}

	b.Run("ingest_encode", func(b *testing.B) {
		buf := make([]byte, 0, longest)
		b.ReportAllocs()
		for b.Loop() {
			for j := range batches {
				w := binenc.Encoder(buf[:0])
				wireIngest(&w, &batches[j])
				buf = w.Buf
			}
		}
	})
	b.Run("ingest_decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, payload := range payloads {
				var got ingestBatch
				r := binenc.Decoder(payload)
				wireIngest(&r, &got)
				if err := payloadErr(&r); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("snapshot_roundtrip", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for b.Loop() {
			w := binenc.Encoder(buf[:0])
			wireSnapshot(&w, &snap)
			buf = w.Buf
			var got ShardSnapshot
			r := binenc.Decoder(buf)
			wireSnapshot(&r, &got)
			if err := payloadErr(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
