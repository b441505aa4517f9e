package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run folds every CPU-profile sample into exactly one bucket,
// and each bucket is reported as a per-layer host time. The rules, applied
// to a sample's stack from the leaf outwards:
//
//  1. Find the innermost frame of a repo module that has a bucket of its
//     own (modules without one, such as metrics or active, are skipped, so
//     their samples land in the caller's bucket).
//  2. If a runtime frame below that frame (or anywhere in the stack, when
//     there is no repo frame) matches gcFrames, the sample is allocation
//     or garbage-collection cost: runtime.gc_host_s.
//  3. Otherwise a repo frame decides: sim frames split by simFrames, every
//     other module maps to its own bucket through moduleBuckets.
//  4. A stack with no repo frame goes to sim.handoff_host_s when a frame
//     matches handoffFrames (the scheduler work behind coroutine switches
//     and parked worker goroutines), else to runtime.other_host_s.
//
// Nothing is spread: what no rule claims stays visible as
// runtime.other_host_s, and bench.fold_coverage is the share outside it.
const (
	bucketHeap    = "sim.heap_host_s"
	bucketSpin    = "sim.spin_host_s"
	bucketHandoff = "sim.handoff_host_s"
	bucketShard   = "sim.shard_host_s"
	bucketEngine  = "sim.engine_host_s"
	bucketGC      = "runtime.gc_host_s"
	bucketOther   = "runtime.other_host_s"
)

// repoPrefix is the import-path prefix of the repo's modules.
const repoPrefix = "repro/internal/"

// moduleBuckets maps a repo module (the first path element under
// repro/internal) to its bucket; sim is split further by simFrames.
var moduleBuckets = map[string]string{
	"sim":         bucketEngine,
	"cthreads":    "cthreads.host_s",
	"locks":       "locks.host_s",
	"core":        "core.host_s",
	"tsp":         "tsp.host_s",
	"experiments": "experiments.host_s",
	"workload":    "experiments.host_s",
	"profile":     "profile.host_s",
	"trace":       "trace.host_s",
}

// simFrames splits samples whose deciding frame is in sim. The first entry
// whose substring occurs in the function name wins, so the spin entries
// must precede the generic (*Coro) one.
var simFrames = []struct{ substr, bucket string }{
	{".(*eventQueue).", bucketHeap},
	{".(*event).less", bucketHeap},
	{".(*Engine).runSpin", bucketSpin},
	{".(*Engine).fastForwardSpin", bucketSpin},
	{".(*Coro).SpinUntil", bucketSpin},
	{".(*Coro).spinSlow", bucketSpin},
	{".(*Sharded).", bucketShard},
	{".(*Engine).runWindow", bucketShard},
	{".(*Engine).scheduleMessage", bucketShard},
	{".(*Engine).nextEventTime", bucketShard},
	{".(*Machine).Route", bucketShard},
	{".(*Coro).", bucketHandoff},
	{".(*Engine).dispatch", bucketHandoff},
	{".(*Engine).Spawn", bucketHandoff},
	{".(*Engine).shutdown", bucketHandoff},
}

// gcFrames are function-name prefixes of allocation and collection work.
var gcFrames = []string{
	"runtime.mallocgc",
	"runtime.newobject",
	"runtime.newarray",
	"runtime.makeslice",
	"runtime.growslice",
	"runtime.makemap",
	"runtime.gc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.sweepone",
	"runtime.markroot",
	"runtime.scanobject",
	"runtime.scanblock",
	"runtime.scanstack",
	"runtime.scanframeworker",
	"runtime.greyobject",
	"runtime.wbBuf",
	"runtime.bulkBarrierPreWrite",
	"runtime.(*gcWork).",
	"runtime.(*gcControllerState).",
	"runtime.(*mheap).",
	"runtime.(*mcache).",
	"runtime.(*mcentral).",
	"runtime.(*mspan).",
	"runtime.(*sweepLocked).",
}

// handoffFrames are function-name prefixes of goroutine switching: channel
// operations, parking, the scheduler loop, and the futex/lock calls under
// it.
var handoffFrames = []string{
	"runtime.chansend",
	"runtime.chanrecv",
	"runtime.gopark",
	"runtime.goready",
	"runtime.ready",
	"runtime.mcall",
	"runtime.park_m",
	"runtime.schedule",
	"runtime.findRunnable",
	"runtime.stealWork",
	"runtime.runqgrab",
	"runtime.execute",
	"runtime.gogo",
	"runtime.goexit0",
	"runtime.stopm",
	"runtime.startm",
	"runtime.wakep",
	"runtime.mPark",
	"runtime.notesleep",
	"runtime.notewakeup",
	"runtime.futex",
	"runtime.lock2",
	"runtime.unlock2",
	"runtime.casgstatus",
	"runtime.osyield",
	"runtime.usleep",
	"runtime.netpoll",
}

func hasPrefixIn(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// repoBucket returns the bucket of a repo-module frame, or "" when fn is
// not in a repo module that has one.
func repoBucket(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	mod := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		mod = rest[:i]
	}
	b := moduleBuckets[mod]
	if b != bucketEngine {
		return b
	}
	for _, f := range simFrames {
		if strings.Contains(fn, f.substr) {
			return f.bucket
		}
	}
	return bucketEngine
}

// bucketOf folds one stack (function names, leaf first) to its bucket.
func bucketOf(stack []string) string {
	for i, fn := range stack {
		b := repoBucket(fn)
		if b == "" {
			continue
		}
		for _, below := range stack[:i] {
			if hasPrefixIn(below, gcFrames) {
				return bucketGC
			}
		}
		return b
	}
	for _, fn := range stack {
		if hasPrefixIn(fn, gcFrames) {
			return bucketGC
		}
	}
	for _, fn := range stack {
		if hasPrefixIn(fn, handoffFrames) {
			return bucketHandoff
		}
	}
	return bucketOther
}

// hostBuckets lists every bucket the fold can produce, in report order.
func hostBuckets() []string {
	return []string{
		bucketHeap, bucketSpin, bucketHandoff, bucketShard, bucketEngine,
		"cthreads.host_s", "locks.host_s", "core.host_s", "tsp.host_s",
		"experiments.host_s", "profile.host_s", "trace.host_s",
		bucketGC, bucketOther,
	}
}

// cpuSample is one profile sample: its stack (function names, leaf first,
// inlined frames expanded) and the CPU nanoseconds it stands for.
type cpuSample struct {
	stack []string
	ns    int64
}

// fold adds each sample's nanoseconds to its bucket.
func fold(samples []cpuSample, into map[string]int64) {
	for _, s := range samples {
		into[bucketOf(s.stack)] += s.ns
	}
}

// parseCPUProfile decodes the gzip-compressed protocol-buffer profile that
// runtime/pprof writes. Only the fields the fold needs are read: sample
// types, samples, locations with their (inlined) lines, functions, and the
// string table.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		strs        []string
		sampleTypes []uint64 // string index of each sample type's name
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location → function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function → string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, b []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = appendVarints(s.locs, v, b)
				case 2:
					s.vals, err = appendVarints(s.vals, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				stack = append(stack, str(funcNames[f]))
			}
		}
		out = append(out, cpuSample{stack: stack, ns: int64(s.vals[cpu])})
	}
	return out, nil
}

// fields walks the fields of one protocol-buffer message, calling fn with
// the field number and either its varint value or its length-delimited
// bytes. Fixed-width fields are skipped; the profile format has none the
// fold reads.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated scalar field, which runtime/pprof
// writes either packed (data holds the varints) or one value per field.
func appendVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errors.New("profile: bad packed varint")
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}
