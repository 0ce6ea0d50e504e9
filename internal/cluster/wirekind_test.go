package cluster

import "testing"

// TestFrameKindAck pins the request→ack table the busy-refusal path and
// the wireframe-checked dispatch switches rely on.
func TestFrameKindAck(t *testing.T) {
	reqAck := map[FrameKind]FrameKind{
		msgHello:  msgHelloAck,
		msgIngest: msgIngestAck,
		msgSnap:   msgSnapResp,
		msgLeave:  msgLeaveAck,
		msgPing:   msgPong,
	}
	for req, want := range reqAck {
		if got := req.ack(); got != want {
			t.Errorf("ack(%d) = %d, want %d", req, got, want)
		}
		if !req.isRequest() {
			t.Errorf("isRequest(%d) = false, want true", req)
		}
	}
	for _, k := range []FrameKind{msgHelloAck, msgIngestAck, msgSnapResp, msgLeaveAck, msgPong} {
		if k.isRequest() {
			t.Errorf("isRequest(%d) = true, want false", k)
		}
		if k.ack() != k {
			t.Errorf("ack(%d) = %d, want identity for ack kinds", k, k.ack())
		}
	}
	if unknown := FrameKind(200); unknown.ack() != unknown || unknown.isRequest() {
		t.Errorf("unknown kind must map to itself and not be a request")
	}
}

// isRequest reports whether k is a frontend-originated request kind (as
// opposed to a shard-originated ack).
func (k FrameKind) isRequest() bool {
	switch k {
	case msgHello, msgIngest, msgSnap, msgLeave, msgPing:
		return true
	case msgHelloAck, msgIngestAck, msgSnapResp, msgLeaveAck, msgPong:
		return false
	}
	return false
}
