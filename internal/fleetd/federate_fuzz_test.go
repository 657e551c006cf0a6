package fleetd

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalFederateRequest hammers the NXTF envelope parser with
// hostile input: it must never panic or over-allocate (counts are
// bounded against the remaining buffer before any make), every item it
// accepts carries a non-negative base generation, and every envelope
// it does accept must survive a marshal round trip
// byte-identically — the decode-is-a-fixed-point property the wire
// tests pin for hand-built envelopes, extended to whatever the fuzzer
// finds.
func FuzzUnmarshalFederateRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("NXTF"))
	f.Add([]byte("{\"agg\":\"edge\"}"))
	seed := MarshalFederateRequest(FederateRequest{
		Agg:     "edge-west",
		Root:    0x9e3779b97f4a7c15,
		Devices: []string{"dev-a", "dev-b"},
		Uploads: []FederatedUpload{
			{Device: "dev-a", Platform: "note9", Body: []byte("{}")},
			{Device: "dev-b", Platform: "sd855", BaseGen: 3, Body: []byte{0x4e, 0x58, 0x54, 0x42, 0x01}},
			{Device: "dev-c", Platform: "sd855", BaseGen: 1 << 40, Body: nil},
		},
	})
	f.Add(seed)
	for cut := 1; cut < len(seed); cut += 7 {
		f.Add(seed[:cut])
	}
	// Non-minimal varint (0x80 0x00 encodes 0 in two bytes): the fuzzer
	// found this breaking the fixed-point property before the reader
	// rejected non-canonical encodings; keep it as a regression seed,
	// and its base-generation form.
	f.Add([]byte("NXTF\x02\t000000000\x00\x02\x0500000\x0500000\x80\x00"))
	f.Add([]byte("NXTF\x02\x01e\x00\x00\x01\x01d\x01p\x80\x00\x00"))
	// A base generation past int64 and a v1 envelope: both refused.
	f.Add([]byte("NXTF\x02\x01e\x07\x00\x01\x01d\x01p\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x00"))
	f.Add([]byte("NXTF\x01\x01e\x00\x01\x01d\x01p\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := UnmarshalFederateRequest(data)
		if err != nil {
			return
		}
		again := MarshalFederateRequest(req)
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted envelope is not a marshal fixed point:\n in: %x\nout: %x", data, again)
		}
		req2, err := UnmarshalFederateRequest(again)
		if err != nil {
			t.Fatalf("re-decode of re-marshaled envelope failed: %v", err)
		}
		if req2.Agg != req.Agg || req2.Root != req.Root || len(req2.Devices) != len(req.Devices) || len(req2.Uploads) != len(req.Uploads) {
			t.Fatal("round trip changed the envelope shape")
		}
		for i, up := range req.Uploads {
			if up.BaseGen < 0 || req2.Uploads[i].BaseGen != up.BaseGen {
				t.Fatalf("item %d: base generation %d decoded, %d after the round trip", i, up.BaseGen, req2.Uploads[i].BaseGen)
			}
		}
	})
}
