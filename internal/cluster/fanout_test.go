package cluster

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"botscope/internal/binenc"
	"botscope/internal/dataset"
)

// silentShard listens on loopback, answers every hello as shard id, and
// then reads and drops every other frame: a peer that is connected but
// never replies.
func silentShard(t *testing.T, id int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					f, err := ReadFrame(conn)
					if err != nil {
						return
					}
					if f.Type != msgHello {
						continue
					}
					w := binenc.Encoder(nil)
					wireHelloAck(&w, &helloAck{ShardID: id})
					if _, err := conn.Write(AppendFrame(nil, &Frame{Type: msgHelloAck, ReqID: f.ReqID, Payload: w.Buf})); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestFanOutIsAsWideAsTheMembership pins that the shard fan-out does not
// queue behind the core count: on one core, with two of three shards
// silent, a snapshot answers degraded after about one query timeout and
// an ingest chunk after about one ingest timeout — not one per silent
// shard, as a GOMAXPROCS-wide pool would take. Once the frontend and
// the shards are closed, no goroutine of them is left.
func TestFanOutIsAsWideAsTheMembership(t *testing.T) {
	t.Cleanup(func() { settled(t) }) // runs last: after the deferred closes and the silent shards' listeners
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	live, _, err := ListenLocal(ctx, NewShard(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 300 * time.Millisecond
	f := NewFrontend(timeout, timeout)
	if err := f.Connect(ctx, map[int]string{0: live, 1: silentShard(t, 1), 2: silentShard(t, 2)}); err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	start := time.Now()
	_, degraded, err := f.LiveSnapshot(ctx)
	if elapsed := time.Since(start); elapsed >= 2*timeout {
		t.Errorf("snapshot answered after %v; the silent shards were queried one after the other (timeout %v)", elapsed, timeout)
	}
	if err != nil || !slices.Equal(degraded, []int{1, 2}) {
		t.Fatalf("snapshot: degraded %v, err %v; want [1 2], nil", degraded, err)
	}

	var feed bytes.Buffer
	if err := dataset.WriteJSONL(&feed, []*dataset.Attack{testAttack(1, "192.0.2.7", time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC))}); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	ingested, _, err := f.LiveIngest(ctx, &feed)
	if elapsed := time.Since(start); elapsed >= 2*timeout {
		t.Errorf("ingest acked after %v; the silent shards were sent to one after the other (timeout %v)", elapsed, timeout)
	}
	if err != nil || ingested != 1 {
		t.Fatalf("ingest: %d applied, err %v; want 1, nil", ingested, err)
	}
	if got := f.ring.Members(); !slices.Equal(got, []int{0}) {
		t.Errorf("ring after the silent shards missed an ack = %v, want [0]", got)
	}
}
