package snmplite

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"corropt/internal/netchaos"
	"corropt/internal/rngutil"
)

func TestChecksumRejectsBitFlip(t *testing.T) {
	req, err := EncodeRequest(7, []Query{{Link: 1, Counter: CounterErrorsUp}})
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), req...)
	flipped[len(flipped)/2] ^= 0x04
	if _, _, err := DecodeRequest(flipped); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit-flipped request: err = %v, want ErrChecksum", err)
	}

	resp, err := EncodeResponse(7, []Value{{Query: Query{Link: 1, Counter: CounterErrorsUp}, Value: 42}})
	if err != nil {
		t.Fatal(err)
	}
	flipped = append([]byte(nil), resp...)
	flipped[reqHeaderLen+3] ^= 0x80
	if _, _, err := DecodeResponse(flipped); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit-flipped response: err = %v, want ErrChecksum", err)
	}

	// A flipped error reply must be rejected too, not surfaced as a
	// (corrupted) RemoteError.
	eresp := EncodeError(7, 2, "no such link")
	flipped = append([]byte(nil), eresp...)
	flipped[13] ^= 0x01
	if _, _, err := DecodeResponse(flipped); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit-flipped error reply: err = %v, want ErrChecksum", err)
	}
}

// echoProvider answers every query with a value derived from the query, so
// tests can verify values survived the trip.
func echoProvider(link uint32, counter CounterID) (uint64, error) {
	return uint64(link)*100 + uint64(counter), nil
}

func chaosClient(t *testing.T, addr string, inj *netchaos.Injector, attempts int) *Client {
	t.Helper()
	cli, err := DialConfig(addr, ClientConfig{
		Timeout:  100 * time.Millisecond,
		Attempts: attempts,
		Dial:     inj.DatagramDialer(),
		Sleep:    func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

func TestClientRetransmitsThroughRequestLoss(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ProviderFunc(echoProvider))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inj := netchaos.New(rngutil.New(5), netchaos.Config{Drop: 1, MaxFaults: 2})
	cli := chaosClient(t, srv.Addr().String(), inj, 5)
	values, err := cli.Get([]Query{{Link: 3, Counter: CounterErrorsUp}})
	if err != nil {
		t.Fatalf("get through loss: %v", err)
	}
	if len(values) != 1 || values[0].Value != 302 {
		t.Fatalf("values = %+v, want one value 302", values)
	}
	if s := inj.Stats(); s.Drops != 2 {
		t.Fatalf("stats = %+v, want exactly 2 drops", s)
	}
}

func TestClientRetransmitsThroughCorruptedRequests(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ProviderFunc(echoProvider))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The corrupted request fails the server's checksum and is dropped like
	// line noise; the client's retransmit (budget spent) gets through.
	inj := netchaos.New(rngutil.New(5), netchaos.Config{Corrupt: 1, MaxFaults: 1})
	cli := chaosClient(t, srv.Addr().String(), inj, 4)
	values, err := cli.Get([]Query{{Link: 2, Counter: CounterPacketsDown}})
	if err != nil {
		t.Fatalf("get through corruption: %v", err)
	}
	if len(values) != 1 || values[0].Value != 201 {
		t.Fatalf("values = %+v, want one value 201", values)
	}
}

func TestClientDiscardsCorruptedResponses(t *testing.T) {
	// Fault the server→client path: wrap the server's socket so its first
	// reply is bit-flipped. The client must discard it (checksum), time
	// out, retransmit, and accept the clean second reply.
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := netchaos.New(rngutil.New(11), netchaos.Config{Corrupt: 1, MaxFaults: 1})
	srv, err := NewServerConn(inj.PacketConn(conn), ProviderFunc(echoProvider), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clean := netchaos.New(rngutil.New(0), netchaos.Config{})
	cli := chaosClient(t, srv.Addr().String(), clean, 4)
	values, err := cli.Get([]Query{{Link: 4, Counter: CounterDropsUp}})
	if err != nil {
		t.Fatalf("get through corrupted reply: %v", err)
	}
	if len(values) != 1 || values[0].Value != 404 {
		t.Fatalf("values = %+v, want one value 404", values)
	}
	if s := inj.Stats(); s.Corrupts != 1 {
		t.Fatalf("stats = %+v, want exactly 1 corrupted reply", s)
	}
}

func TestClientTimeoutSentinel(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ProviderFunc(echoProvider))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Unlimited drops: every attempt is lost and the sentinel surfaces.
	inj := netchaos.New(rngutil.New(5), netchaos.Config{Drop: 1})
	cli := chaosClient(t, srv.Addr().String(), inj, 2)
	if _, err := cli.Get([]Query{{Link: 1, Counter: CounterPacketsUp}}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want wrapped ErrTimeout", err)
	}
}

func TestResponseSurvivesDupAndReorder(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := netchaos.New(rngutil.New(2), netchaos.Config{Dup: 0.5, Reorder: 0.5, MaxFaults: 8})
	srv, err := NewServerConn(inj.PacketConn(conn), ProviderFunc(echoProvider), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clean := netchaos.New(rngutil.New(0), netchaos.Config{})
	cli := chaosClient(t, srv.Addr().String(), clean, 4)
	for i := 0; i < 8; i++ {
		link := uint32(i)
		values, err := cli.Get([]Query{{Link: link, Counter: CounterErrorsDown}})
		if err != nil {
			t.Fatalf("poll %d: %v", i, err)
		}
		if len(values) != 1 || values[0].Value != uint64(link)*100+uint64(CounterErrorsDown) {
			t.Fatalf("poll %d: values = %+v", i, values)
		}
	}
}

func TestCodecChecksumTrailerPresent(t *testing.T) {
	// The version-2 wire format ends in a CRC-32C over everything before
	// it; pin the layout so both ends keep agreeing on where the trailer
	// lives.
	req, err := EncodeRequest(1, []Query{{Link: 9, Counter: CounterRxPowerUpper}})
	if err != nil {
		t.Fatal(err)
	}
	if len(req) != reqHeaderLen+6+checksumLen {
		t.Fatalf("request length = %d, want %d", len(req), reqHeaderLen+6+checksumLen)
	}
	if req[2] != Version {
		t.Fatalf("version byte = %d, want %d", req[2], Version)
	}
	truncated := req[:len(req)-1]
	if _, _, err := DecodeRequest(truncated); !errors.Is(err, ErrTruncated) {
		t.Fatalf("missing trailer byte: err = %v, want ErrTruncated", err)
	}
	if !bytes.Equal(req[:reqHeaderLen+6], req[:len(req)-checksumLen]) {
		t.Fatal("trailer is not the final 4 bytes")
	}
}
