package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"syscall"
	"time"
)

// httpConn is one keep-alive HTTP/1.1 connection driven synchronously: write
// a pre-rendered request, read one response. The generator owns exactly as
// many of these as the load model allows connections, and nothing else ever
// dials the server during a timed window.
//
// It is a blocking socket used with plain read and write system calls, and it
// parses responses itself. Going through net.Conn would route every reply
// through the runtime's poller: a second thread has to be scheduled to notice
// the reply and hand it to the goroutine that waits for it, and on two cores
// shared with the server that hand-off shows up in the very latency being
// measured. A thread blocked in read(2) is woken by the kernel directly.
type httpConn struct {
	addr    string
	timeout time.Duration
	fd      int // -1 when not connected
	br      *bufio.Reader
	body    []byte // the last response's body, valid until the next roundTrip
}

func newHTTPConn(addr string) *httpConn {
	return &httpConn{addr: addr, timeout: 10 * time.Second, fd: -1}
}

// Read implements io.Reader over the blocking socket for the bufio.Reader.
func (c *httpConn) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(c.fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, err // EAGAIN here is the receive timeout expiring
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func (c *httpConn) write(p []byte) error {
	for len(p) > 0 {
		n, err := syscall.Write(c.fd, p)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

func (c *httpConn) dial() error {
	ta, err := net.ResolveTCPAddr("tcp4", c.addr)
	if err != nil {
		return fmt.Errorf("dial %s: %w", c.addr, err)
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return fmt.Errorf("dial %s: %w", c.addr, err)
	}
	sa := &syscall.SockaddrInet4{Port: ta.Port}
	copy(sa.Addr[:], ta.IP.To4())
	tv := syscall.NsecToTimeval(int64(c.timeout))
	for _, step := range []func() error{
		func() error { return syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_SNDTIMEO, &tv) },
		func() error { return syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv) },
		func() error { return syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1) },
		func() error { return syscall.Connect(fd, sa) },
	} {
		if err := step(); err != nil {
			_ = syscall.Close(fd) // the socket never carried data
			return fmt.Errorf("dial %s: %w", c.addr, err)
		}
	}
	c.fd = fd
	if c.br == nil {
		c.br = bufio.NewReaderSize(c, 16<<10)
	} else {
		c.br.Reset(c)
	}
	return nil
}

// close drops the connection; the next roundTrip redials.
func (c *httpConn) close() {
	if c.fd >= 0 {
		_ = syscall.Close(c.fd) // the connection is being discarded; nothing is buffered for write
		c.fd = -1
	}
}

// roundTrip sends req and reads the response, returning its status code with
// the body left in c.body. Any transport or framing error closes the
// connection so a later call starts clean.
func (c *httpConn) roundTrip(req []byte) (int, error) {
	if c.fd < 0 {
		if err := c.dial(); err != nil {
			return 0, err
		}
	}
	if err := c.write(req); err != nil {
		c.close()
		return 0, fmt.Errorf("write request: %w", err)
	}
	status, err := c.readResponse()
	if err != nil {
		c.close()
	}
	return status, err
}

func (c *httpConn) readResponse() (int, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, fmt.Errorf("read status line: %w", err)
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked, closing := -1, false, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, fmt.Errorf("read header: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, val, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, fmt.Errorf("malformed header %q", line)
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil || length < 0 {
				return 0, fmt.Errorf("bad Content-Length %q", val)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(val, []byte("close"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		if err := c.readChunked(); err != nil {
			return 0, err
		}
	case length >= 0:
		if err := c.readN(length); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("response has neither Content-Length nor chunked encoding")
	}
	if closing {
		c.close()
	}
	return status, nil
}

func (c *httpConn) readN(n int) error {
	start := len(c.body)
	if cap(c.body) < start+n {
		grown := make([]byte, start, 2*(start+n))
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:start+n]
	if _, err := io.ReadFull(c.br, c.body[start:]); err != nil {
		return fmt.Errorf("read body: %w", err)
	}
	return nil
}

func (c *httpConn) readChunked() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("read chunk size: %w", err)
		}
		size, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
		n, err := strconv.ParseInt(string(bytes.TrimSpace(size)), 16, 32)
		if err != nil || n < 0 {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if n == 0 {
			// Trailers (none expected) up to the blank line.
			for {
				line, err = c.br.ReadSlice('\n')
				if err != nil {
					return fmt.Errorf("read trailer: %w", err)
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return nil
				}
			}
		}
		if err := c.readN(int(n)); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil { // the CRLF closing the chunk
			return fmt.Errorf("read chunk end: %w", err)
		}
	}
}

// renderGET pre-renders a GET so a timed window only copies bytes.
func renderGET(pathAndQuery string) []byte {
	return []byte("GET " + pathAndQuery + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// renderPOST pre-renders a POST carrying body.
func renderPOST(path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: text/tab-separated-values\r\nContent-Length: %d\r\n\r\n", path, len(body))
	b.Write(body)
	return b.Bytes()
}
