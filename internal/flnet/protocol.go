// Package flnet is the networked counterpart of package fl: a coordinator
// server and edge-server clients speaking a compact length-prefixed binary
// protocol over TCP. It exists so the system can actually be deployed the
// way the paper's prototype was — one coordinator laptop, N Raspberry-Pi
// edge servers on a LAN — rather than only simulated in-process.
//
// Wire format: every message is a frame
//
//	uint32   big-endian payload length (excluding these 4 bytes)
//	byte     message type
//	payload  type-specific binary (little-endian fixed-width fields,
//	         models in ml's own serialization)
//
// The protocol is strictly request/reply per connection, so no concurrent
// writes occur on a single conn.
//
// The Join/Rejoin/Welcome handshake bodies end in a protocol-version byte,
// and both training messages name the codec of their model body. A model
// travels as raw float64 only on a connection's first exchange: after that
// each end holds, bit for bit, the models the other is about to describe, and
// the body is ml's lossless delta against a prediction formed from them
// (deltaBits) — or, when the coordinator is configured for it, a lossy
// quantized residual (downlink) or quantized model (uplink). The hot path on
// both ends runs over pooled frame buffers: one coalesced write per frame,
// reads into capacity-tracked scratch, and model bodies encoded/decoded
// directly in the frame buffer. This file is the only place that knows the
// format or its version.
package flnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"eefei/internal/ml"
)

// MsgType identifies a protocol frame.
type MsgType byte

const (
	// MsgJoin is sent by an edge server immediately after dialing:
	// payload = uint32 sample count of its local shard, protocol-version
	// byte.
	MsgJoin MsgType = iota + 1
	// MsgWelcome is the coordinator's reply to MsgJoin:
	// payload = uint32 assigned client id, protocol-version byte.
	MsgWelcome
	// MsgTrainRequest asks a client to run local training; payload: see
	// trainReqHeaderLen.
	MsgTrainRequest
	// MsgTrainReply returns the locally trained model; payload: see
	// trainRepHeaderLen.
	MsgTrainReply
	// MsgShutdown tells a client training is over; payload is empty.
	MsgShutdown
	// MsgRejoin re-registers a previously welcomed client after a
	// reconnect: payload = uint32 previously assigned client id, uint32
	// sample count, protocol-version byte. The coordinator replies MsgWelcome
	// echoing the same id and revives the client's roster slot.
	MsgRejoin
)

// String implements fmt.Stringer.
func (m MsgType) String() string {
	switch m {
	case MsgJoin:
		return "join"
	case MsgWelcome:
		return "welcome"
	case MsgTrainRequest:
		return "train-request"
	case MsgTrainReply:
		return "train-reply"
	case MsgShutdown:
		return "shutdown"
	case MsgRejoin:
		return "rejoin"
	default:
		return fmt.Sprintf("MsgType(%d)", byte(m))
	}
}

// ProtoV4 is the one protocol version this package speaks, carried in the
// handshake version byte so a future v5 can be told apart. A joiner
// advertising a newer version is welcomed at ProtoV4; the retired ones — v1,
// the same handshake bodies without the version byte, v2, whose warm model
// bodies were raw float64, and v3, whose delta bodies stored each block's
// values in whole bytes — are refused by name.
const ProtoV4 byte = 4

// deltaBits in a request's DownBits or a reply's Bits says the model body is
// ml's lossless delta coding (ml.AppendDelta) against a prediction both ends
// hold: all 64 bits of every parameter arrive. The field's predictor order
// says which prediction.
const deltaBits ml.QuantBits = 64

// ErrProtocol is returned (wrapped) for malformed or unexpected frames.
var ErrProtocol = errors.New("flnet: protocol error")

// handshakeLimit bounds the payload of a frame read during registration;
// the largest handshake body (Rejoin) is 9 bytes.
const handshakeLimit = 16

// modelBodyLimit is the largest model body a peer may legitimately send for
// a model of m's shape: its float64 serialization (a delta body is sent only
// when it is smaller) or — only for shapes of under four parameters, where the
// fixed quantization header outweighs the narrower values — its 16-bit
// quantized one.
func modelBodyLimit(m *ml.Model) int {
	return max(m.EncodedSize(), ml.QuantizedSize(m.Classes(), m.Features(), ml.Quant16))
}

// frameHeaderLen is the length prefix plus the type byte.
const frameHeaderLen = 5

// framePool recycles whole-frame buffers (header + payload built in one
// slice) across rounds and connections. Buffers are handed out with the
// header bytes reserved so payload encoders can append directly and
// finishFrame can patch the header in place for a single coalesced write.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// newFrame returns a pooled buffer primed with frameHeaderLen reserved
// bytes. Append the payload to *bp, then seal with finishFrame and release
// with freeFrame.
func newFrame() *[]byte {
	bp := framePool.Get().(*[]byte)
	*bp = append((*bp)[:0], 0, 0, 0, 0, 0)
	return bp
}

// freeFrame returns a frame buffer to the pool.
func freeFrame(bp *[]byte) { framePool.Put(bp) }

// finishFrame patches the length prefix and type byte into the header bytes
// reserved by newFrame and returns the complete wire image (aliasing *bp).
func finishFrame(bp *[]byte, t MsgType) ([]byte, error) {
	buf := *bp
	payload := len(buf) - frameHeaderLen
	if uint64(payload)+1 > math.MaxUint32 {
		return nil, fmt.Errorf("frame of %d bytes overflows the length prefix: %w", payload, ErrProtocol)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(payload+1))
	buf[4] = byte(t)
	return buf, nil
}

// writeFrame sends one frame as a single coalesced write — header, type and
// payload staged in a pooled buffer, so steady-state frames cost zero heap
// allocations and exactly one syscall on a net.Conn.
func writeFrame(w io.Writer, t MsgType, payload []byte) error {
	bp := newFrame()
	defer freeFrame(bp)
	*bp = append(*bp, payload...)
	buf, err := finishFrame(bp, t)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("write %v frame: %w", t, err)
	}
	return nil
}

// writeFrameBuf seals a frame built directly in a pooled buffer (newFrame +
// payload appends) and writes it in one call, returning the bytes put on the
// wire. The buffer is not released; the caller owns it.
func writeFrameBuf(w io.Writer, t MsgType, bp *[]byte) (int, error) {
	buf, err := finishFrame(bp, t)
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(buf); err != nil {
		return 0, fmt.Errorf("write %v frame: %w", t, err)
	}
	return len(buf), nil
}

// readFrame reads one frame into freshly allocated storage. Handshake and
// test paths use it; the per-round hot paths use readFrameInto.
func readFrame(r io.Reader, limit int) (MsgType, []byte, error) {
	var scratch []byte
	return readFrameInto(r, &scratch, limit)
}

// readFrameInto reads one frame into *scratch, growing it only when the
// frame exceeds its capacity. limit is the largest payload the caller's
// state can legitimately expect; a longer length prefix is rejected before
// any body byte is read or buffered, so a corrupt peer cannot force an
// allocation beyond what the model needs. The returned payload aliases
// *scratch and is valid until the next call with the same scratch. The
// length prefix is read into the scratch buffer too (not a stack array, which
// would escape through the io.Reader interface and cost one heap object per
// frame).
func readFrameInto(r io.Reader, scratch *[]byte, limit int) (MsgType, []byte, error) {
	if cap(*scratch) < 4 {
		*scratch = make([]byte, 0, 4096)
	}
	lenBuf := (*scratch)[:4]
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return 0, nil, fmt.Errorf("read frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf)
	if n == 0 || uint64(n)-1 > uint64(limit) {
		return 0, nil, fmt.Errorf("frame length %d (payload limit %d): %w", n, limit, ErrProtocol)
	}
	if cap(*scratch) < int(n) {
		*scratch = make([]byte, n)
	}
	body := (*scratch)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("read frame body: %w", err)
	}
	return MsgType(body[0]), body[1:], nil
}

// expectFrame reads a frame and verifies its type.
func expectFrame(r io.Reader, want MsgType, limit int) ([]byte, error) {
	var scratch []byte
	return expectFrameInto(r, want, &scratch, limit)
}

// expectFrameInto is expectFrame reading into reusable scratch.
func expectFrameInto(r io.Reader, want MsgType, scratch *[]byte, limit int) ([]byte, error) {
	got, payload, err := readFrameInto(r, scratch, limit)
	if err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("got %v, want %v: %w", got, want, ErrProtocol)
	}
	return payload, nil
}

// --- message bodies ---------------------------------------------------------

// TrainRequest is the decoded form of MsgTrainRequest.
type TrainRequest struct {
	Round        int
	Epochs       int
	LearningRate float64
	// ReplyBits asks the client to quantize its uploaded model to the given
	// width (0 = full-precision float64). Quantized uploads shrink the
	// radio payload ~64/bits-fold — a direct e^U energy reduction.
	ReplyBits ml.QuantBits
	// DownBits records the codec the request's model body travels in: 0 =
	// full float64 model, deltaBits = lossless delta, Quant8/Quant16 =
	// quantized residual — the last two against the BaseRound broadcast.
	DownBits ml.QuantBits
	// DownOrder is a delta body's predictor order: 1 predicts the BaseRound
	// broadcast itself, 2 extrapolates it by its distance from the
	// BaseRound−1 broadcast. Zero for the other codecs.
	DownOrder int
	// BaseRound is the round of the broadcast, already held by this
	// connection, that the body is coded against; equal to Round for
	// full-model requests.
	BaseRound int
}

// trainReqHeaderLen is the fixed request header:
//
//	uint32  round
//	uint32  epochs
//	float64 learning rate
//	uint32  reply bits (0 = reply losslessly; 8/16 = quantize the reply)
//	uint8   downlink bits (0 = body is a full EFM model; 64 = body is an EFD
//	        lossless delta; 8/16 = body is an EFQ-quantized residual)
//	uint8   predictor order of a delta body (1 or 2), else zero
//	uint32  base round (== round for full-model requests)
//
// followed by the model body.
const trainReqHeaderLen = 26

// putTrainRequestHeader writes the request header into h[:trainReqHeaderLen].
func putTrainRequestHeader(h []byte, req TrainRequest) {
	_ = h[trainReqHeaderLen-1]
	binary.LittleEndian.PutUint32(h[0:4], uint32(req.Round))
	binary.LittleEndian.PutUint32(h[4:8], uint32(req.Epochs))
	binary.LittleEndian.PutUint64(h[8:16], math.Float64bits(req.LearningRate))
	binary.LittleEndian.PutUint32(h[16:20], uint32(req.ReplyBits))
	h[20] = byte(req.DownBits)
	h[21] = byte(req.DownOrder)
	binary.LittleEndian.PutUint32(h[22:26], uint32(req.BaseRound))
}

// appendTrainRequestHeader appends the request header to dst; the caller then
// appends the model body in the codec the header names.
func appendTrainRequestHeader(dst []byte, req TrainRequest) []byte {
	var h [trainReqHeaderLen]byte
	putTrainRequestHeader(h[:], req)
	return append(dst, h[:]...)
}

// appendLosslessRequest appends a request carrying m losslessly: as a delta
// against pred (see appendLossless), models the connection holds from the
// broadcast of round req.BaseRound, when that is possible and smaller, else
// as the full model of round req.Round. The header is written last, once the
// body has chosen its codec.
func appendLosslessRequest(dst []byte, req TrainRequest, m *ml.Model, pred ...*ml.Model) []byte {
	start := len(dst)
	dst = appendTrainRequestHeader(dst, req)
	dst, req.DownBits, req.DownOrder = appendLossless(dst, m, pred)
	if req.DownBits == 0 {
		req.BaseRound = req.Round
	}
	putTrainRequestHeader(dst[start:], req)
	return dst
}

// appendLossless appends m the cheapest lossless way its receiver can decode:
// as ml's delta against pred — one model: that model (order 1); three models
// a, b, c: a + (b − c) (order 2) — when the receiver holds them and the coded
// body is smaller, else as the float64 serialization. It returns the codec and
// predictor order for the header.
func appendLossless(dst []byte, m *ml.Model, pred []*ml.Model) (out []byte, bits ml.QuantBits, order int) {
	if len(pred) > 0 {
		if out, ok := ml.AppendDelta(dst, m, pred...); ok {
			return out, deltaBits, (len(pred) + 1) / 2
		}
	}
	return m.AppendBinary(dst), 0, 0
}

// decodeTrainRequest parses a request header. The raw model body (aliasing
// payload) comes back separately so the edge can decode it into long-lived
// scratch according to DownBits.
func decodeTrainRequest(payload []byte) (req TrainRequest, body []byte, err error) {
	if len(payload) < trainReqHeaderLen {
		return TrainRequest{}, nil, fmt.Errorf("train request of %d bytes: %w", len(payload), ErrProtocol)
	}
	req.Round = int(binary.LittleEndian.Uint32(payload[0:4]))
	req.Epochs = int(binary.LittleEndian.Uint32(payload[4:8]))
	req.LearningRate = math.Float64frombits(binary.LittleEndian.Uint64(payload[8:16]))
	if !(req.LearningRate > 0) || math.IsInf(req.LearningRate, 0) {
		return TrainRequest{}, nil, fmt.Errorf("learning rate %v: %w", req.LearningRate, ErrProtocol)
	}
	req.ReplyBits = ml.QuantBits(binary.LittleEndian.Uint32(payload[16:20]))
	switch req.ReplyBits {
	case 0, ml.Quant8, ml.Quant16:
	default:
		return TrainRequest{}, nil, fmt.Errorf("reply bits %d: %w", req.ReplyBits, ErrProtocol)
	}
	req.DownBits = ml.QuantBits(payload[20])
	req.DownOrder = int(payload[21])
	req.BaseRound = int(binary.LittleEndian.Uint32(payload[22:26]))
	if err := checkCodec("downlink", req.DownBits, req.DownOrder); err != nil {
		return TrainRequest{}, nil, err
	}
	switch {
	case req.DownBits == 0 && req.BaseRound != req.Round:
		return TrainRequest{}, nil, fmt.Errorf("full request base round %d != round %d: %w",
			req.BaseRound, req.Round, ErrProtocol)
	case req.BaseRound > req.Round:
		return TrainRequest{}, nil, fmt.Errorf("base round %d > round %d: %w",
			req.BaseRound, req.Round, ErrProtocol)
	case req.DownOrder == 2 && req.BaseRound == 0:
		return TrainRequest{}, nil, fmt.Errorf("second-order delta against round 0: %w", ErrProtocol)
	}
	body = payload[trainReqHeaderLen:]
	if len(body) == 0 {
		return TrainRequest{}, nil, fmt.Errorf("train request without model body: %w", ErrProtocol)
	}
	return req, body, nil
}

// checkCodec validates a (codec, predictor order) pair from a header: delta
// bodies carry order 1 or 2, every other codec order 0.
func checkCodec(what string, bits ml.QuantBits, order int) error {
	switch bits {
	case 0, ml.Quant8, ml.Quant16:
		if order != 0 {
			return fmt.Errorf("%s bits %d with predictor order %d: %w", what, bits, order, ErrProtocol)
		}
	case deltaBits:
		if order != 1 && order != 2 {
			return fmt.Errorf("%s delta with predictor order %d: %w", what, order, ErrProtocol)
		}
	default:
		return fmt.Errorf("%s bits %d: %w", what, bits, ErrProtocol)
	}
	return nil
}

// TrainReply is the decoded form of MsgTrainReply.
type TrainReply struct {
	Round   int
	Loss    float64
	Samples int
	// Bits records the codec the model travelled in: 0 = float64, deltaBits =
	// lossless delta against the request's model, Quant8/Quant16 = quantized.
	// To encode, 0 asks for the cheapest lossless body and the header records
	// which that was. The decoded Model is always full precision; quantization
	// error, if any, was incurred on the wire.
	Bits ml.QuantBits
	// Order is a delta body's predictor order: 1 predicts the model the
	// request delivered, 2 adds the step this connection's previous local
	// model took from the model it was delivered. Zero for the other codecs.
	Order int
	// WireBytes is the size of the encoded model payload, which upload
	// energy is proportional to.
	WireBytes int
	Model     *ml.Model
}

// trainRepHeaderLen is the fixed reply header: uint32 round, float64 final
// local loss, uint32 samples, uint32 codec (low byte: bits as in the request's
// downlink byte; second byte: a delta body's predictor order; rest zero).
const trainRepHeaderLen = 20

// appendTrainReply appends the reply encoding (header + model) to dst — the
// zero-copy path writing straight into a pooled frame buffer. rep.Bits
// Quant8/Quant16 quantizes the model; 0 sends it losslessly against pred (see
// appendLossless), which is empty when the coordinator holds nothing this
// reply could be predicted from.
func appendTrainReply(dst []byte, rep TrainReply, pred ...*ml.Model) ([]byte, error) {
	start := len(dst)
	var h [trainRepHeaderLen]byte
	dst = append(dst, h[:]...)
	bits, order := rep.Bits, 0
	switch rep.Bits {
	case 0:
		dst, bits, order = appendLossless(dst, rep.Model, pred)
	case ml.Quant8, ml.Quant16:
		var err error
		if dst, err = ml.AppendQuantized(dst, rep.Model, rep.Bits); err != nil {
			return nil, fmt.Errorf("encode reply model: %w", err)
		}
	default:
		return nil, fmt.Errorf("reply bits %d: %w", rep.Bits, ErrProtocol)
	}
	binary.LittleEndian.PutUint32(h[0:4], uint32(rep.Round))
	binary.LittleEndian.PutUint64(h[4:12], math.Float64bits(rep.Loss))
	binary.LittleEndian.PutUint32(h[12:16], uint32(rep.Samples))
	binary.LittleEndian.PutUint32(h[16:20], uint32(bits)|uint32(order)<<8)
	copy(dst[start:], h[:])
	return dst, nil
}

// decodeTrainReplyInto decodes a reply, reusing m's parameter storage for
// the model body when shapes match (the coordinator keeps one scratch model
// per roster slot, making warm-round reply decoding allocation-free). On
// success rep.Model == m. A delta body is decoded against sent, the model the
// request delivered, and — second order — against m itself, still holding
// this connection's previous reply, and prevSent, the model that one was
// trained from; nil says the coordinator holds no such model, and a body
// that needs it is refused. m is overwritten in place, so after an error it
// holds nothing.
func decodeTrainReplyInto(payload []byte, m, sent, prevSent *ml.Model) (TrainReply, error) {
	if len(payload) < trainRepHeaderLen {
		return TrainReply{}, fmt.Errorf("train reply of %d bytes: %w", len(payload), ErrProtocol)
	}
	var rep TrainReply
	rep.Round = int(binary.LittleEndian.Uint32(payload[0:4]))
	rep.Loss = math.Float64frombits(binary.LittleEndian.Uint64(payload[4:12]))
	if math.IsNaN(rep.Loss) || math.IsInf(rep.Loss, 0) {
		return TrainReply{}, fmt.Errorf("loss %v: %w", rep.Loss, ErrProtocol)
	}
	rep.Samples = int(binary.LittleEndian.Uint32(payload[12:16]))
	codec := binary.LittleEndian.Uint32(payload[16:20])
	if codec>>16 != 0 {
		return TrainReply{}, fmt.Errorf("reply codec %#x: %w", codec, ErrProtocol)
	}
	rep.Bits, rep.Order = ml.QuantBits(codec&0xff), int(codec>>8)
	if err := checkCodec("reply", rep.Bits, rep.Order); err != nil {
		return TrainReply{}, err
	}
	rep.WireBytes = len(payload) - trainRepHeaderLen
	body := payload[trainRepHeaderLen:]
	var err error
	switch {
	case rep.Bits == 0:
		err = m.UnmarshalBinaryReuse(body)
	case rep.Bits != deltaBits:
		err = m.DequantizeInto(body)
	case sent == nil || rep.Order == 2 && prevSent == nil:
		err = fmt.Errorf("order-%d delta against a model this end does not hold: %w", rep.Order, ErrProtocol)
	case rep.Order == 1:
		err = ml.ApplyDelta(m, body, sent)
	default:
		err = ml.ApplyDelta(m, body, sent, m, prevSent)
	}
	if err != nil {
		return TrainReply{}, fmt.Errorf("decode reply model: %w", err)
	}
	rep.Model = m
	return rep, nil
}

// checkVersion validates a handshake body's fixed size and its trailing
// version byte. The seed protocol (v1) sent the same bodies without that
// byte; those, and a version below ProtoV4, are refused by name so the
// operator of an old peer sees why it cannot register.
func checkVersion(what string, payload []byte, size int) error {
	switch {
	case len(payload) == size-1:
		return fmt.Errorf("version-less %s: protocol v1 is no longer supported: %w", what, ErrProtocol)
	case len(payload) != size:
		return fmt.Errorf("%s body of %d bytes: %w", what, len(payload), ErrProtocol)
	case payload[size-1] < ProtoV4:
		v := payload[size-1]
		return fmt.Errorf("%s at v%d: protocol v%d is no longer supported: %w", what, v, max(v, 1), ErrProtocol)
	}
	return nil
}

// encodeJoin builds the 5-byte MsgJoin body: shard sample count, version.
func encodeJoin(samples uint32) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, samples), ProtoV4)
}

// decodeJoin parses the MsgJoin body. Any advertised version from ProtoV4 up
// is accepted; the Welcome answers ProtoV4.
func decodeJoin(payload []byte) (samples uint32, err error) {
	if err := checkVersion("join", payload, 5); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(payload), nil
}

// welcomeLen is the size of the MsgWelcome body.
const welcomeLen = 5

// encodeWelcome builds the 5-byte MsgWelcome body: assigned client id,
// version.
func encodeWelcome(id uint32) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, id), ProtoV4)
}

// decodeWelcome parses the MsgWelcome body, which must carry exactly
// ProtoV4 — the version every Join and Rejoin advertises.
func decodeWelcome(payload []byte) (id uint32, err error) {
	if err := checkVersion("welcome", payload, welcomeLen); err != nil {
		return 0, err
	}
	if v := payload[4]; v != ProtoV4 {
		return 0, fmt.Errorf("welcome at v%d, advertised v%d: %w", v, ProtoV4, ErrProtocol)
	}
	return binary.LittleEndian.Uint32(payload), nil
}

// encodeRejoin builds the 9-byte MsgRejoin body: previously assigned id,
// sample count, version.
func encodeRejoin(id, samples uint32) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, id)
	buf = binary.LittleEndian.AppendUint32(buf, samples)
	return append(buf, ProtoV4)
}

// decodeRejoin parses the MsgRejoin body, accepting versions as decodeJoin.
func decodeRejoin(payload []byte) (id, samples uint32, err error) {
	if err := checkVersion("rejoin", payload, 9); err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint32(payload[0:4]), binary.LittleEndian.Uint32(payload[4:8]), nil
}
