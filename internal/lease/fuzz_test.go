package lease

import (
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
)

// FuzzLeaseDecode drives the lease-file decoder with arbitrary bytes.
// The decoder runs on whatever another process — possibly killed
// mid-write — left in the campaign's leases/ directory, so it must
// never panic and must classify every malformed image as ErrInvalid
// (which Acquire treats as a stale lease, never a fatal error): torn
// writes, garbage, shifted framing, wild epochs and out-of-range
// timestamps all land there. Whatever does decode must re-encode to a
// byte-identical image (the lease codec is canonical).
func FuzzLeaseDecode(f *testing.F) {
	good, err := Encode(Lease{
		Shard: 3, Epoch: 7,
		Owner:             Owner{Host: "node-12", PID: 4242, Token: "00deadbeef77aa55"},
		HeartbeatUnixNano: 1_700_000_000_000_000_000,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-5])                         // torn write
	f.Add(good[:len(good)-1])                         // missing newline
	f.Add(append(append([]byte{}, good...), good...)) // two records
	f.Add([]byte(""))
	f.Add([]byte("garbage, not a lease"))
	f.Add([]byte("deadbeef {\"shard\":0}\n")) // wrong CRC
	f.Add([]byte("zzzzzzzz {\"shard\":0}\n")) // non-hex CRC
	f.Add([]byte("0" + string(good)))         // shifted framing
	f.Add(frameFuzz(`{"shard":0,"epoch":0,"owner":{"host":"","pid":0,"token":"t"},"heartbeat_unix_nano":0}`))
	f.Add(frameFuzz(`{"shard":-4,"epoch":1,"owner":{"host":"","pid":0,"token":"t"},"heartbeat_unix_nano":0}`))
	f.Add(frameFuzz(`{"shard":0,"epoch":18446744073709551615,"owner":{"host":"","pid":0,"token":"t"},"heartbeat_unix_nano":0}`)) // future/overflow epoch
	f.Add(frameFuzz(`{"shard":0,"epoch":1,"owner":{"host":"","pid":0,"token":"t"},"heartbeat_unix_nano":9223372036854775807}`))  // extreme timestamp
	f.Add(frameFuzz(`{"shard":0,"epoch":1,"owner":{"host":"","pid":0,"token":"t"},"heartbeat_unix_nano":1e999}`))                // NaN/Inf-shaped number
	f.Add(frameFuzz(`{"shard":0,"epoch":1,"owner":{"host":"","pid":0,"token":"t"},"heartbeat_unix_nano":0,"extra":true}`))       // unknown field

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("Decode error does not wrap ErrInvalid: %v", err)
			}
			return
		}
		// Every successfully decoded lease is within the validated
		// bounds...
		if verr := validLease(l); verr != nil {
			t.Fatalf("decoded lease violates its own invariants: %v (%+v)", verr, l)
		}
		// ...and round-trips byte-identically: the codec is canonical,
		// so two processes comparing lease images compare leases.
		img, err := Encode(l)
		if err != nil {
			t.Fatalf("decoded lease does not re-encode: %v", err)
		}
		back, err := Decode(img)
		if err != nil {
			t.Fatalf("re-encoded lease does not decode: %v", err)
		}
		if back != l {
			t.Fatalf("round trip changed the lease: %+v != %+v", back, l)
		}
	})
}

// frameFuzz wraps a record in valid CRC framing for seed inputs that
// must exercise the field validation, not the checksum.
func frameFuzz(rec string) []byte {
	return []byte(fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(rec)), rec))
}
