package main

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// TestHTTPServerSetsAllTimeouts pins the regression the old server
// shipped with: only ReadHeaderTimeout was set, so a client dribbling
// a request body (a slowloris) could pin a connection and its handler
// goroutine forever.
func TestHTTPServerSetsAllTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", nil, 30*time.Second, 60*time.Second, 120*time.Second)
	if srv.ReadTimeout != 30*time.Second {
		t.Errorf("ReadTimeout = %v", srv.ReadTimeout)
	}
	if srv.WriteTimeout != 60*time.Second {
		t.Errorf("WriteTimeout = %v", srv.WriteTimeout)
	}
	if srv.IdleTimeout != 120*time.Second {
		t.Errorf("IdleTimeout = %v", srv.IdleTimeout)
	}
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v", srv.ReadHeaderTimeout)
	}
}

// TestSlowBodyRequestIsCutOff proves the ReadTimeout actually bites: a
// request whose body arrives one byte at a time must have its
// connection killed by the server shortly after the read deadline, long
// before the body would complete on its own.
func TestSlowBodyRequestIsCutOff(t *testing.T) {
	h, _ := testHandler(t)
	const readTimeout = 250 * time.Millisecond
	srv := newHTTPServer("", h, readTimeout, time.Second, time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	// Headers complete promptly; the declared body would take ~100 s at
	// our dribble rate, so only the server's ReadTimeout can end this.
	_, err = fmt.Fprintf(conn,
		"POST /v1/infer HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: 2000\r\n\r\n")
	if err != nil {
		t.Fatal(err)
	}

	// Dribble the body while watching for the server to give up. The
	// read side unblocks (EOF/RST) when the server closes the
	// connection after ReadTimeout.
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 512)
		for {
			if _, err := conn.Read(buf); err != nil {
				done <- err
				return
			}
		}
	}()
	var cutOff bool
	var wrote int
dribble:
	for i := 0; i < 200; i++ {
		select {
		case <-done:
			cutOff = true
			break dribble
		case <-time.After(50 * time.Millisecond):
			if _, err := conn.Write([]byte("[")); err != nil {
				cutOff = true
				break dribble
			}
			wrote++
		}
	}
	elapsed := time.Since(start)
	if !cutOff {
		t.Fatalf("server kept the slow-body connection alive for %v (%d bytes dribbled)", elapsed, wrote)
	}
	// Cut off near the deadline, not after the body limped to an end.
	if elapsed > 5*time.Second {
		t.Fatalf("connection lived %v, want cutoff shortly after ReadTimeout %v", elapsed, readTimeout)
	}
	t.Logf("slow-body connection cut off after %v (%d bytes dribbled)", elapsed, wrote)
}
