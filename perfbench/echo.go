package main

import (
	"net"
	"sync"

	"clocksync/internal/livenet"
)

// echoServer is the live workload's reference: a UDP echo in the
// benchmark's own code that answers each datagram with one the size of a
// serve reply, starting with the datagram's first 8 bytes. Most of a served
// query's CPU time is the host's, not the program's: two datagrams through
// the kernel and the wake-ups of the goroutines that wait for them. What
// those cost moves with the host, by about a quarter between an idle and a
// busy second CPU, and the CPU-bound reference of the simulator workloads
// does not move with it; the same client's queries to an echo do.
type echoServer struct {
	conn *net.UDPConn
	wg   sync.WaitGroup
}

func startEcho() (*echoServer, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	s := &echoServer{conn: conn}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		buf := make([]byte, 2048)
		reply := make([]byte, livenet.ServeReplySize)
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // closed
			}
			copy(reply, buf[:min(n, 8)])
			// An echo that fails to send only goes uncounted.
			_, _ = conn.WriteToUDPAddrPort(reply, from)
		}
	}()
	return s, nil
}

func (s *echoServer) addr() string { return s.conn.LocalAddr().String() }

// stop closes the socket and waits for the server goroutine to end.
func (s *echoServer) stop() {
	s.conn.Close()
	s.wg.Wait()
}
