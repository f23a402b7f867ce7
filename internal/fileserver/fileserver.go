// Package fileserver is a multi-client file server over the reliable
// transport — the paper's §1 "remote facilities" grown past a demo: one
// station, one file system, N concurrent sessions, each its own reliable
// connection, multiplexed by (source address, connection id) and served
// round-robin in sweeps, one session per Poll (§2: the machine has no
// scheduler, so concurrency is the server program's own business). The
// transport runs at the top of every Poll, as the Alto's input ran below
// its main program: a packet is acknowledged when it arrives, and the
// request it carries is answered when the sweep reaches its session.
//
// The wire protocol is word-level messages over pup connections:
//
//	[MsgFetch, name...]        client asks for a file by name
//	[MsgStore, name...]        client begins storing a file
//	[MsgData,  count, bytes]   one chunk, either direction
//	[MsgEnd,   lo, hi]         end of data, total byte count
//	[MsgOK]                    server confirms a store hit the disk
//	[MsgError, message...]     either side reports failure
//
// The server serves reads and writes through the multipage chain paths:
// full interior pages move in chained batches (file.ReadPages/WritePages),
// only the partial last page takes the one-page path. Every session is a
// trace span (trace.KindFSSession), and Stats summarizes the server's life.
package fileserver

import (
	"errors"
	"fmt"
	"time"

	"altoos/internal/dir"
	"altoos/internal/disk"
	"altoos/internal/ether"
	"altoos/internal/file"
	"altoos/internal/pup"
	"altoos/internal/trace"
)

// Message opcodes (the first payload word of every transport message).
const (
	MsgFetch ether.Word = 1 + iota
	MsgStore
	MsgData
	MsgEnd
	MsgOK
	MsgError
	// MsgDigest asks for the server's per-file digest table — name, size,
	// content checksum, write stamp, local-cleanliness bit for every file in
	// the root directory. The reply is the serialized table as ordinary
	// MsgData chunks. The cluster audit protocol polls peers with it.
	MsgDigest
)

// DataBytesPerMsg is the chunk size: a transport message minus the opcode
// and byte-count words, two bytes per word.
const DataBytesPerMsg = 2 * (pup.MaxData - 2)

// chainPages is the batch size for multipage disk transfers.
const chainPages = 8

// Errors.
var (
	// ErrRemote reports a MsgError from the far end.
	ErrRemote = errors.New("fileserver: remote error")
	// ErrBusy reports a second request before the first completed.
	ErrBusy = errors.New("fileserver: transfer already in progress")
	// ErrProtocol reports a malformed message.
	ErrProtocol = errors.New("fileserver: protocol error")
)

// Stats summarizes a server's life so far.
type Stats struct {
	Sessions int64 // connections accepted
	Active   int64 // connections live right now
	Fetches  int64 // files served
	Stores   int64 // files written
	Digests  int64 // digest tables served
	BytesIn  int64 // data bytes received from clients
	BytesOut int64 // data bytes sent to clients
}

// Server serves one file system to any number of clients over one station.
type Server struct {
	fs *file.FS
	ep *pup.Endpoint

	// sessions in accept order: every sweep walks this slice, never a map,
	// so service order — and with it the trace — is deterministic.
	sessions []*session
	stats    Stats

	// The current sweep covers sessions[:sweepLen] and serves next; a
	// session accepted mid-sweep waits for the next one.
	next, sweepLen int
}

// session is one client connection's server-side state.
type session struct {
	conn   *pup.Conn
	opened time.Duration
	moved  int64 // data bytes in either direction, for the trace span
	flow   int64 // first client flow adopted, stamped on the session span

	// quota is how many received messages the current sweep serves: those
	// the session held when the sweep began. Later arrivals wait a sweep.
	quota int

	// outq is the pending outbound message queue; push drains it as the
	// send window allows (backpressure, never blocking the poll loop).
	outq [][]ether.Word

	// inbound store in progress, if any. The store's flow and start are
	// held from MsgStore to MsgEnd so the request span covers the whole
	// inbound transfer plus the disk chain that lands it.
	storing    bool
	storeName  string
	in         []byte
	storeFlow  int64
	storeStart time.Duration
}

// NewServer builds a server from a file system and a transport endpoint.
// The endpoint is put into listening mode; the caller just polls.
func NewServer(fs *file.FS, ep *pup.Endpoint) *Server {
	ep.Listen()
	return &Server{fs: fs, ep: ep}
}

// Endpoint returns the server's transport endpoint.
func (s *Server) Endpoint() *pup.Endpoint { return s.ep }

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	st := s.stats
	st.Active = int64(len(s.sessions))
	return st
}

// rec reaches the medium's flight recorder (nil when tracing is off).
func (s *Server) rec() *trace.Recorder { return s.ep.Station().TraceRecorder() }

// Poll is one step of the server's activity: one transport poll (receive,
// ack, fire timers), new connections accepted, then the next session of the
// current sweep that has work is served. A sweep serves each session the
// messages it held when the sweep began, in accept order; when it ends the
// next one begins, in the same call if need be. So the caller's loop comes
// round between one session's disk work and the next, and packets that
// arrived meanwhile are acknowledged at once and answered in the next sweep.
// Returns whether any work happened, so activity-switching loops can tell
// busy from idle: false means the transport moved nothing and a whole sweep
// begun in this call found no session with work.
func (s *Server) Poll() (bool, error) {
	worked, err := s.ep.Poll()
	if err != nil {
		return true, err
	}
	for {
		conn, ok := s.ep.Accept()
		if !ok {
			break
		}
		s.sessions = append(s.sessions, &session{
			conn:   conn,
			opened: s.ep.Station().Clock().Now(),
		})
		s.stats.Sessions++
		worked = true
	}
	began := false
	for {
		if s.next >= s.sweepLen {
			if began {
				return worked, nil
			}
			s.beginSweep()
			began = true
			continue
		}
		ss := s.sessions[s.next]
		w := s.serve(ss)
		if ss.conn.State() == pup.StateClosed {
			s.closeSession(ss)
			s.sessions = append(s.sessions[:s.next], s.sessions[s.next+1:]...)
			s.sweepLen--
		} else {
			s.next++
		}
		if w {
			return true, nil
		}
	}
}

// beginSweep starts a sweep over every session accepted so far, each to
// serve the messages it holds now.
func (s *Server) beginSweep() {
	s.next, s.sweepLen = 0, len(s.sessions)
	for _, ss := range s.sessions {
		ss.quota = ss.conn.Queued()
	}
}

// closeSession retires a finished session, emitting its trace span. The span
// carries the first flow the session adopted, linking the server's view back
// to the client request that opened the exchange.
func (s *Server) closeSession(ss *session) {
	if rec := s.rec(); rec != nil {
		now := s.ep.Station().Clock().Now()
		rec.EmitSpanFlow(ss.opened, now-ss.opened, trace.KindFSSession, "",
			int64(ss.conn.Remote()), ss.moved, ss.flow)
		rec.Add("fs.session.close", 1)
	}
}

// serve advances one session: handle its quota of inbound messages, push
// outbound ones.
func (s *Server) serve(ss *session) bool {
	worked := false
	for ; ss.quota > 0; ss.quota-- {
		msg, flow, ok := ss.conn.RecvFlow()
		if !ok {
			break
		}
		worked = true
		s.handle(ss, msg, flow)
	}
	if ss.push() {
		worked = true
	}
	return worked
}

// push sends queued messages while the window has room; other errors kill
// the connection (its own state reports why). Avail batches the sends —
// ErrWindowFull stays as a backstop only.
func (ss *session) push() bool {
	worked := false
	for len(ss.outq) > 0 && ss.conn.Avail() > 0 {
		err := ss.conn.Send(ss.outq[0])
		if errors.Is(err, pup.ErrWindowFull) {
			break
		}
		if err != nil {
			ss.outq = nil
			break
		}
		ss.outq = ss.outq[1:]
		worked = true
	}
	return worked
}

// handle processes one client message. The message's flow — allocated by the
// client, carried in every transport header — is adopted here: replies ride
// it back, the per-request span is stamped with it, and the session span
// keeps the first one it saw.
func (s *Server) handle(ss *session, msg []ether.Word, flow int64) {
	if len(msg) == 0 {
		return
	}
	if ss.flow == 0 {
		ss.flow = flow
	}
	// Replies queued from here on carry the request's flow on the wire.
	ss.conn.SetFlow(flow)
	switch msg[0] {
	case MsgFetch:
		name, err := ether.UnpackString(msg[1:])
		if err != nil {
			ss.sendError("bad fetch request")
			return
		}
		start := s.ep.Station().Clock().Now()
		// The disk read blocks every poll for tens of milliseconds; flush
		// the delayed ack first so the client's RTT estimator never sees a
		// disk stall where a wire round trip should be.
		ss.conn.FlushAck()
		data, err := ReadFile(s.fs, name)
		if err != nil {
			ss.sendError(err.Error())
			return
		}
		ss.queueData(data)
		ss.moved += int64(len(data))
		s.stats.Fetches++
		s.stats.BytesOut += int64(len(data))
		if rec := s.rec(); rec != nil {
			now := s.ep.Station().Clock().Now()
			rec.EmitSpanFlow(start, now-start, trace.KindFSRequest, "fetch",
				int64(ss.conn.Remote()), int64(len(data)), flow)
			rec.Add("fs.fetch", 1)
		}
	case MsgDigest:
		start := s.ep.Station().Clock().Now()
		// Digesting reads every page of every file — tens of milliseconds of
		// disk time per file; flush the delayed ack first, as fetch does.
		ss.conn.FlushAck()
		data, err := s.digestTable()
		if err != nil {
			ss.sendError(err.Error())
			return
		}
		ss.queueData(data)
		ss.moved += int64(len(data))
		s.stats.Digests++
		s.stats.BytesOut += int64(len(data))
		if rec := s.rec(); rec != nil {
			now := s.ep.Station().Clock().Now()
			rec.EmitSpanFlow(start, now-start, trace.KindFSRequest, "digest",
				int64(ss.conn.Remote()), int64(len(data)), flow)
			rec.Add("fs.digest", 1)
		}
	case MsgStore:
		name, err := ether.UnpackString(msg[1:])
		if err != nil {
			ss.sendError("bad store request")
			return
		}
		ss.storing, ss.storeName, ss.in = true, name, nil
		ss.storeFlow = flow
		ss.storeStart = s.ep.Station().Clock().Now()
	case MsgData:
		if !ss.storing {
			return // stray data: drop, as on a real wire
		}
		data, err := unpackChunk(msg)
		if err != nil {
			ss.sendError(err.Error())
			ss.storing = false
			return
		}
		ss.in = append(ss.in, data...)
	case MsgEnd:
		if !ss.storing {
			return
		}
		ss.storing = false
		if total, ok := unpackTotal(msg); !ok || total != len(ss.in) {
			ss.sendError("store length mismatch")
			return
		}
		// As with fetch: ack the tail of the store before the long write
		// so the client does not retransmit into a silent disk stall.
		ss.conn.FlushAck()
		if err := WriteFile(s.fs, ss.storeName, ss.in); err != nil {
			ss.sendError(err.Error())
			return
		}
		ss.moved += int64(len(ss.in))
		s.stats.Stores++
		s.stats.BytesIn += int64(len(ss.in))
		if rec := s.rec(); rec != nil {
			now := s.ep.Station().Clock().Now()
			rec.EmitSpanFlow(ss.storeStart, now-ss.storeStart, trace.KindFSRequest, "store",
				int64(ss.conn.Remote()), int64(len(ss.in)), ss.storeFlow)
			rec.Add("fs.store", 1)
		}
		ss.outq = append(ss.outq, []ether.Word{MsgOK})
		ss.in = nil
	}
}

// sendError queues a MsgError reply.
func (ss *session) sendError(msg string) {
	ss.outq = append(ss.outq, append([]ether.Word{MsgError}, ether.PackString(msg)...))
}

// queueData queues a full fetch reply: data chunks, then the end marker.
func (ss *session) queueData(data []byte) {
	for off := 0; off < len(data); off += DataBytesPerMsg {
		end := off + DataBytesPerMsg
		if end > len(data) {
			end = len(data)
		}
		ss.outq = append(ss.outq, packChunk(data[off:end]))
	}
	ss.outq = append(ss.outq, packTotal(len(data)))
}

// ReadFile reads a whole named file off fs in the server's byte layout
// (big-endian bytes packed two to a word, the last page always partial):
// full interior pages in chained batches, the partial last page on the
// one-page path. The server answers fetches with it; a cluster replica
// reads its own pack with it.
func ReadFile(fs *file.FS, name string) ([]byte, error) {
	fn, err := dir.ResolveName(fs, name)
	if err != nil {
		return nil, fmt.Errorf("no such file %q", name)
	}
	f, err := fs.Open(fn)
	if err != nil {
		return nil, fmt.Errorf("open %q failed", name)
	}
	lastPN, lastLen := f.LastPage()
	out := make([]byte, 0, (int(lastPN)-1)*disk.PageBytes+lastLen)
	var pages [chainPages][disk.PageWords]disk.Word
	for pn := disk.Word(1); pn < lastPN; {
		n := int(lastPN - pn)
		if n > chainPages {
			n = chainPages
		}
		if err := f.ReadPages(pn, pages[:n]); err != nil {
			return nil, fmt.Errorf("read %q page %d failed", name, pn)
		}
		for i := 0; i < n; i++ {
			out = appendWords(out, pages[i][:], disk.PageBytes)
		}
		pn += disk.Word(n)
	}
	var buf [disk.PageWords]disk.Word
	n, err := f.ReadPage(lastPN, &buf)
	if err != nil {
		return nil, fmt.Errorf("read %q last page failed", name)
	}
	count(fs, "fs.file.read")
	return appendWords(out, buf[:], n), nil
}

// WriteFile stores data under name on fs, the inverse of ReadFile, creating
// the file and its root directory entry if needed: existing interior pages
// are overwritten in chained batches, growth and the last page go through
// the one-page path, and a shrinking store truncates the leftovers. Every
// page goes through the label-checked write path, which also refreshes the
// sector checksums of any page rot left stale. The server lands stores with
// it; a cluster replica heals its own copy with it.
func WriteFile(fs *file.FS, name string, data []byte) error {
	root, err := dir.OpenRoot(fs)
	if err != nil {
		return errors.New("no root directory")
	}
	var f *file.File
	if fn, err := root.Lookup(name); err == nil {
		if f, err = fs.Open(fn); err != nil {
			return fmt.Errorf("open %q failed", name)
		}
	} else {
		if f, err = fs.Create(name); err != nil {
			return errors.New("disk full")
		}
		if err := root.Insert(name, f.FN()); err != nil {
			return errors.New("directory full")
		}
	}

	// The last page of a file is always partial (see File.WritePage), so
	// len(data) lays out as full interior pages plus a partial tail.
	full := len(data) / disk.PageBytes
	lastLen := len(data) % disk.PageBytes
	lastPN := disk.Word((full + 1) & 0xFFFF)

	// A shrinking store truncates first, so everything below is overwrite
	// or growth.
	oldLast := f.LastPN()
	if oldLast > lastPN {
		if err := f.Truncate(lastPN, lastLen); err != nil {
			return fmt.Errorf("truncate %q failed", name)
		}
		oldLast = lastPN
	}

	// Chained overwrites: the new file's interior pages (all full by
	// construction) that already exist on disk as interior pages.
	limit := lastPN - 1
	if oldLast-1 < limit {
		limit = oldLast - 1
	}
	var pages [chainPages][disk.PageWords]disk.Word
	pn := disk.Word(1)
	for pn <= limit {
		n := int(limit - pn + 1)
		if n > chainPages {
			n = chainPages
		}
		for i := 0; i < n; i++ {
			fillPage(&pages[i], data, int(pn)+i)
		}
		if err := f.WritePages(pn, pages[:n]); err != nil {
			return fmt.Errorf("write %q page %d failed", name, pn)
		}
		pn += disk.Word(n)
	}
	// Growth and the tail: each full write of the current last page
	// appends a fresh page, so the file extends one page per pass.
	for ; pn <= lastPN; pn++ {
		fillPage(&pages[0], data, int(pn))
		length := disk.PageBytes
		if pn == lastPN {
			length = lastLen
		}
		if err := f.WritePage(pn, &pages[0], length); err != nil {
			return fmt.Errorf("write %q page %d failed", name, pn)
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("sync %q failed", name)
	}
	count(fs, "fs.file.write")
	return nil
}

// count bumps a counter on the recorder of fs's drive, if it has one.
func count(fs *file.FS, name string) {
	if drv, ok := fs.Device().(*disk.Drive); ok {
		drv.TraceRecorder().Add(name, 1)
	}
}

// fillPage packs the pn-th (1-based) page of data into buf, zero-padded.
func fillPage(buf *[disk.PageWords]disk.Word, data []byte, pn int) {
	off := (pn - 1) * disk.PageBytes
	for i := range buf {
		var w disk.Word
		if off < len(data) {
			w = disk.Word(data[off]) << 8
		}
		if off+1 < len(data) {
			w |= disk.Word(data[off+1])
		}
		buf[i] = w
		off += 2
	}
}

// appendWords unpacks n bytes out of words (big-endian, as the disk stream
// packs them) onto dst.
func appendWords(dst []byte, words []disk.Word, n int) []byte {
	for i := 0; i < n; i++ {
		w := words[i/2]
		if i%2 == 0 {
			dst = append(dst, byte(w>>8))
		} else {
			dst = append(dst, byte(w))
		}
	}
	return dst
}

// packChunk builds a MsgData message: opcode, byte count, packed bytes.
func packChunk(data []byte) []ether.Word {
	out := make([]ether.Word, 2+(len(data)+1)/2)
	out[0] = MsgData
	out[1] = ether.Word(len(data))
	for i, b := range data {
		if i%2 == 0 {
			out[2+i/2] |= ether.Word(b) << 8
		} else {
			out[2+i/2] |= ether.Word(b)
		}
	}
	return out
}

// unpackChunk is the inverse of packChunk.
func unpackChunk(msg []ether.Word) ([]byte, error) {
	if len(msg) < 2 {
		return nil, fmt.Errorf("%w: short data message", ErrProtocol)
	}
	n := int(msg[1])
	if 2+(n+1)/2 > len(msg) {
		return nil, fmt.Errorf("%w: truncated data message", ErrProtocol)
	}
	data := make([]byte, n)
	for i := range data {
		w := msg[2+i/2]
		if i%2 == 0 {
			data[i] = byte(w >> 8)
		} else {
			data[i] = byte(w)
		}
	}
	return data, nil
}

// packTotal builds a MsgEnd message carrying the 32-bit total byte count.
func packTotal(n int) []ether.Word {
	return []ether.Word{MsgEnd, ether.Word(n & 0xFFFF), ether.Word(n >> 16)}
}

// unpackTotal is the inverse of packTotal.
func unpackTotal(msg []ether.Word) (int, bool) {
	if len(msg) < 3 {
		return 0, false
	}
	return int(msg[1]) | int(msg[2])<<16, true
}
