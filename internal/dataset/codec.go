package dataset

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"
)

// ErrStop, returned from a Decode* callback, stops decoding early without
// error — the streaming analogue of breaking out of a range loop.
var ErrStop = errors.New("dataset: stop decoding")

// parseWireTime parses an RFC 3339 time the way the JSONL codec takes it,
// in the scanner and in its encoding/json reference. The encoder writes
// times in UTC, and RFC 3339 has four digits for the year: a zone offset
// next to year 0000 or 9999 names an instant it could write but no
// decoder could read back, so it is rejected here.
func parseWireTime(s string) (time.Time, error) {
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return time.Time{}, err
	}
	if y := t.UTC().Year(); y < 0 || y > 9999 {
		return time.Time{}, fmt.Errorf("time %q: year %d in UTC, outside 0000..9999", s, y)
	}
	return t, nil
}

// attackJSON is the stable wire form of an Attack for JSON-lines export.
// Decoding it with encoding/json and converting with attack is the
// reference the JSONL scanner and encoder (jsonl.go) are held to.
type attackJSON struct {
	ID        uint64   `json:"ddos_id"`
	BotnetID  uint32   `json:"botnet_id"`
	Family    string   `json:"family"`
	Category  string   `json:"category"`
	TargetIP  string   `json:"target_ip"`
	Timestamp string   `json:"timestamp"`
	EndTime   string   `json:"end_time"`
	BotIPs    []string `json:"botnet_ips"`
	ASN       int      `json:"asn"`
	CC        string   `json:"cc"`
	City      string   `json:"city"`
	Org       string   `json:"org"`
	Latitude  float64  `json:"latitude"`
	Longitude float64  `json:"longitude"`
}

// WriteJSONL encodes attacks as one JSON object per line, byte for byte
// as json.Encoder encodes attackJSON, with one Write per record.
func WriteJSONL(w io.Writer, attacks []*Attack) error {
	var buf []byte
	for _, a := range attacks {
		var err error
		if buf, err = appendAttackJSON(buf[:0], a); err == nil {
			_, err = w.Write(buf)
		}
		if err != nil {
			return fmt.Errorf("dataset: encode attack %d: %w", a.ID, err)
		}
	}
	return nil
}

// DecodeJSONL streams attacks written by WriteJSONL, invoking fn for each
// record as it is parsed, without materializing the full slice — the
// ingestion path for live feeds of arbitrary length. A non-nil error from
// fn aborts decoding and is returned as-is (ErrStop aborts and returns
// nil).
func DecodeJSONL(r io.Reader, fn func(*Attack) error) error {
	return decodeJSONL(r, false, fn)
}

// DecodeJSONLKeys is DecodeJSONL for consumers of an attack's key alone:
// the live tiers, whose every answer reads id, botnet, family, category,
// target, start and end. Each record is checked whole (Attack.Validate) —
// a failure stops decoding with Validate's error, as if fn had returned
// it — and then reduced to those seven fields before fn sees it: BotIPs is
// nil and the target geolocation zero. The sources are checked in the
// decoder's scratch, so no record costs a source list.
func DecodeJSONLKeys(r io.Reader, fn func(*Attack) error) error {
	return decodeJSONL(r, true, fn)
}

func decodeJSONL(r io.Reader, keys bool, fn func(*Attack) error) error {
	s := acquireJSONLScanner(r, keys)
	defer s.release()
	for n := 1; ; n++ {
		a, err := s.next(n)
		if err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if keys {
			if err := a.Validate(); err != nil {
				return err
			}
			*a = Attack{ID: a.ID, BotnetID: a.BotnetID, Family: a.Family, Category: a.Category,
				TargetIP: a.TargetIP, Start: a.Start, End: a.End}
		}
		if err := fn(a); err != nil {
			if errors.Is(err, ErrStop) {
				return nil
			}
			return err
		}
	}
}

// attack converts the wire form back into an Attack.
func (rec *attackJSON) attack() (*Attack, error) {
	cat, err := ParseCategory(rec.Category)
	if err != nil {
		return nil, err
	}
	target, err := netip.ParseAddr(rec.TargetIP)
	if err != nil {
		return nil, fmt.Errorf("target_ip: %w", err)
	}
	start, err := parseWireTime(rec.Timestamp)
	if err != nil {
		return nil, fmt.Errorf("timestamp: %w", err)
	}
	end, err := parseWireTime(rec.EndTime)
	if err != nil {
		return nil, fmt.Errorf("end_time: %w", err)
	}
	botIPs := make([]netip.Addr, 0, len(rec.BotIPs))
	for _, s := range rec.BotIPs {
		ip, ipErr := netip.ParseAddr(s)
		if ipErr != nil {
			return nil, fmt.Errorf("botnet_ips: %w", ipErr)
		}
		botIPs = append(botIPs, ip)
	}
	return &Attack{
		ID:            DDoSID(rec.ID),
		BotnetID:      BotnetID(rec.BotnetID),
		Family:        Family(rec.Family),
		Category:      cat,
		TargetIP:      target,
		Start:         start,
		End:           end,
		BotIPs:        botIPs,
		TargetASN:     rec.ASN,
		TargetCountry: rec.CC,
		TargetCity:    rec.City,
		TargetOrg:     rec.Org,
		TargetLat:     rec.Latitude,
		TargetLon:     rec.Longitude,
	}, nil
}

// ReadJSONL decodes attacks written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]*Attack, error) {
	var attacks []*Attack
	err := DecodeJSONL(r, func(a *Attack) error {
		attacks = append(attacks, a)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return attacks, nil
}
