package cluster

import (
	"slices"
	"testing"

	"botscope/internal/binenc"
	"botscope/internal/stream"
	"botscope/internal/synth"
)

// BenchmarkWireCodec budgets the payload walks where the pipeline cannot
// see them: 5,000 ingest entries from a scale-0.1 feed (half records, half
// ticks) each way, as the ingestChunk-entry payloads the frontend sends,
// and that feed's shard snapshot there and back. Encode reuses its buffer
// and allocates nothing; decode allocates what the message holds (each
// payload's entry slice; a record and its family string) and nothing for
// the walk itself — a closure or method value per field shows up here as
// allocs/op, not downstream as alloc_mb_per_pass.
func BenchmarkWireCodec(b *testing.B) {
	store, err := synth.GenerateStore(synth.Config{Seed: 1, Scale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	an := stream.New()
	var entries []IngestEntry
	for i, a := range store.Attacks() {
		if err := an.Ingest(a); err != nil {
			b.Fatal(err)
		}
		if len(entries) < 5000 {
			e := IngestEntry{Seq: uint64(i + 1), ID: a.ID, Start: a.Start, End: a.End}
			if i%2 == 0 {
				e.Record = a
			}
			entries = append(entries, e)
		}
	}
	snap := ShardSnapshot{ShardID: 1, Applied: uint64(an.Ingested()), Snap: an.Snapshot()}
	var chunks [][]IngestEntry
	var payloads [][]byte
	longest := 0
	for c := range slices.Chunk(entries, ingestChunk) {
		chunks = append(chunks, c)
		payloads = append(payloads, encodeMsg(wireIngest, &c))
		longest = max(longest, len(payloads[len(payloads)-1]))
	}

	b.Run("ingest_encode", func(b *testing.B) {
		buf := make([]byte, 0, longest)
		b.ReportAllocs()
		for b.Loop() {
			for j := range chunks {
				w := binenc.Encoder(buf[:0])
				wireIngest(&w, &chunks[j])
				buf = w.Buf
			}
		}
	})
	b.Run("ingest_decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, payload := range payloads {
				var got []IngestEntry
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
