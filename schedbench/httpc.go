package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// readResponse reads one HTTP/1.1 response from br and returns its
// status code and body, appended to buf[:0]. It understands exactly
// what schedd's net/http server sends on a keep-alive connection: a
// Content-Length body, or a chunked one when the reply outgrew the
// server's buffer.
func readResponse(br *bufio.Reader, buf []byte) (int, []byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, nil, fmt.Errorf("read status line: %w", err)
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	code, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status code in %q", line)
	}
	length, chunked := -1, false
	for {
		h, err := br.ReadSlice('\n')
		if err != nil {
			return 0, nil, fmt.Errorf("read header: %w", err)
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		k, v, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			return 0, nil, fmt.Errorf("malformed header %q", h)
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil || length < 0 {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	buf = buf[:0]
	switch {
	case chunked:
		buf, err = readChunked(br, buf)
		return code, buf, err
	case length >= 0:
		buf = slices.Grow(buf, length)[:length]
		_, err = io.ReadFull(br, buf)
		return code, buf, err
	}
	return 0, nil, fmt.Errorf("response has neither Content-Length nor chunked encoding")
}

func readChunked(br *bufio.Reader, buf []byte) ([]byte, error) {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return nil, fmt.Errorf("read chunk size: %w", err)
		}
		size, err := strconv.ParseUint(string(bytes.TrimRight(line, "\r\n")), 16, 32)
		if err != nil {
			return nil, fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			// Trailer section: lines until the empty one.
			for {
				t, err := br.ReadSlice('\n')
				if err != nil {
					return nil, fmt.Errorf("read trailer: %w", err)
				}
				if len(bytes.TrimRight(t, "\r\n")) == 0 {
					return buf, nil
				}
			}
		}
		n := len(buf)
		buf = slices.Grow(buf, int(size))[:n+int(size)]
		if _, err := io.ReadFull(br, buf[n:]); err != nil {
			return nil, fmt.Errorf("read chunk: %w", err)
		}
		var crlf [2]byte
		if _, err := io.ReadFull(br, crlf[:]); err != nil || crlf != [2]byte{'\r', '\n'} {
			return nil, fmt.Errorf("chunk not terminated by CRLF")
		}
	}
}
