package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"time"
)

// csvHeader is the column layout of the attack CSV format, mirroring the
// field names of Table I (with `org` added for the organization-level
// analysis and `family` added for attribution).
var csvHeader = []string{
	"ddos_id", "botnet_id", "family", "category", "target_ip",
	"timestamp", "end_time", "botnet_ips", "asn", "cc", "city", "org",
	"latitude", "longitude",
}

// WriteCSV encodes attacks to w in the Table I CSV layout. Bot IPs are
// semicolon-joined inside one column.
func WriteCSV(w io.Writer, attacks []*Attack) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("dataset: write csv header: %w", err)
	}
	row := make([]string, len(csvHeader))
	for _, a := range attacks {
		ips := make([]string, len(a.BotIPs))
		for i, ip := range a.BotIPs {
			ips[i] = ip.String()
		}
		row[0] = strconv.FormatUint(uint64(a.ID), 10)
		row[1] = strconv.FormatUint(uint64(a.BotnetID), 10)
		row[2] = string(a.Family)
		row[3] = a.Category.String()
		row[4] = a.TargetIP.String()
		row[5] = a.Start.UTC().Format(time.RFC3339)
		row[6] = a.End.UTC().Format(time.RFC3339)
		row[7] = strings.Join(ips, ";")
		row[8] = strconv.Itoa(a.TargetASN)
		row[9] = a.TargetCountry
		row[10] = a.TargetCity
		row[11] = a.TargetOrg
		row[12] = strconv.FormatFloat(a.TargetLat, 'f', 6, 64)
		row[13] = strconv.FormatFloat(a.TargetLon, 'f', 6, 64)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: write csv row for attack %d: %w", a.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ErrStop, returned from a Decode* callback, stops decoding early without
// error — the streaming analogue of breaking out of a range loop.
var ErrStop = errors.New("dataset: stop decoding")

// DecodeCSV streams attacks written by WriteCSV, invoking fn for each
// record as it is parsed, without materializing the full slice. A non-nil
// error from fn aborts decoding and is returned as-is (ErrStop aborts and
// returns nil).
func DecodeCSV(r io.Reader, fn func(*Attack) error) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("dataset: read csv header: %w", err)
	}
	for i, col := range csvHeader {
		if header[i] != col {
			return fmt.Errorf("dataset: csv header mismatch at column %d: got %q, want %q", i, header[i], col)
		}
	}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("dataset: read csv line %d: %w", line, err)
		}
		a, err := parseCSVRow(row)
		if err != nil {
			return fmt.Errorf("dataset: csv line %d: %w", line, err)
		}
		if err := fn(a); err != nil {
			if errors.Is(err, ErrStop) {
				return nil
			}
			return err
		}
	}
}

// ReadCSV decodes attacks written by WriteCSV.
func ReadCSV(r io.Reader) ([]*Attack, error) {
	var attacks []*Attack
	err := DecodeCSV(r, func(a *Attack) error {
		attacks = append(attacks, a)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return attacks, nil
}

// parseWireTime parses an RFC 3339 time the way both text codecs take it.
// The encoders write times in UTC, and RFC 3339 has four digits for the
// year: a zone offset next to year 0000 or 9999 names an instant they
// could write but no decoder could read back, so it is rejected here.
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

func parseCSVRow(row []string) (*Attack, error) {
	id, err := strconv.ParseUint(row[0], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("ddos_id: %w", err)
	}
	botnetID, err := strconv.ParseUint(row[1], 10, 32)
	if err != nil {
		return nil, fmt.Errorf("botnet_id: %w", err)
	}
	cat, err := ParseCategory(row[3])
	if err != nil {
		return nil, err
	}
	target, err := netip.ParseAddr(row[4])
	if err != nil {
		return nil, fmt.Errorf("target_ip: %w", err)
	}
	start, err := parseWireTime(row[5])
	if err != nil {
		return nil, fmt.Errorf("timestamp: %w", err)
	}
	end, err := parseWireTime(row[6])
	if err != nil {
		return nil, fmt.Errorf("end_time: %w", err)
	}
	var botIPs []netip.Addr
	if row[7] != "" {
		parts := strings.Split(row[7], ";")
		botIPs = make([]netip.Addr, 0, len(parts))
		for _, p := range parts {
			ip, ipErr := netip.ParseAddr(p)
			if ipErr != nil {
				return nil, fmt.Errorf("botnet_ips: %w", ipErr)
			}
			botIPs = append(botIPs, ip)
		}
	}
	asn, err := strconv.Atoi(row[8])
	if err != nil {
		return nil, fmt.Errorf("asn: %w", err)
	}
	lat, err := strconv.ParseFloat(row[12], 64)
	if err != nil {
		return nil, fmt.Errorf("latitude: %w", err)
	}
	lon, err := strconv.ParseFloat(row[13], 64)
	if err != nil {
		return nil, fmt.Errorf("longitude: %w", err)
	}
	return &Attack{
		ID:            DDoSID(id),
		BotnetID:      BotnetID(botnetID),
		Family:        Family(row[2]),
		Category:      cat,
		TargetIP:      target,
		Start:         start,
		End:           end,
		BotIPs:        botIPs,
		TargetASN:     asn,
		TargetCountry: row[9],
		TargetCity:    row[10],
		TargetOrg:     row[11],
		TargetLat:     lat,
		TargetLon:     lon,
	}, nil
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
	s := acquireJSONLScanner(r)
	defer s.release()
	for n := 1; ; n++ {
		a, err := s.next(n)
		if err == io.EOF {
			return nil
		} else if err != nil {
			return err
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
