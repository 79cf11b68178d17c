package core

import (
	"encoding/json"
	"fmt"

	"sst/internal/cache"
	"sst/internal/sim"
)

// Sweep memoization. Every design point in this package is a pure function
// of its fully-resolved configuration, so a content-addressed cache keyed
// by config.CanonicalHash (or an explicit versioned parameter key for the
// network/weak-scaling cells) can substitute a stored NodeResult for a
// re-simulation with no observable difference: the stored structs are
// plain value types, copied on both store and load (see grid.attempt), so
// a hit is field-for-field identical to the original run and immune to
// caller mutation. Repeated and overlapping grids — the common case for
// interactive DSE — then pay only for what is new.

// resultEnvelope wraps a cached value for the persistent tier with its
// concrete type, since a cache file can hold both node results and the
// scalar times of the network/weak-scaling studies.
type resultEnvelope struct {
	Kind string          `json:"kind"`
	Val  json.RawMessage `json:"val"`
}

// ResultCodec serializes the value types core studies cache — *NodeResult
// and sim.Time — using the same exact-round-trip JSON encoding as the
// sweep journal.
func ResultCodec() cache.Codec {
	return cache.Codec{
		Encode: func(v any) ([]byte, error) {
			var env resultEnvelope
			var err error
			switch x := v.(type) {
			case *NodeResult:
				env.Kind = "node"
				env.Val, err = json.Marshal(x)
			case sim.Time:
				env.Kind = "time"
				env.Val, err = json.Marshal(x)
			default:
				return nil, fmt.Errorf("core: cache codec: unsupported type %T", v)
			}
			if err != nil {
				return nil, err
			}
			return json.Marshal(env)
		},
		Decode: func(data []byte) (any, error) {
			var env resultEnvelope
			if err := json.Unmarshal(data, &env); err != nil {
				return nil, err
			}
			switch env.Kind {
			case "node":
				res := new(NodeResult)
				if err := json.Unmarshal(env.Val, res); err != nil {
					return nil, err
				}
				return res, nil
			case "time":
				var t sim.Time
				if err := json.Unmarshal(env.Val, &t); err != nil {
					return nil, err
				}
				return t, nil
			}
			return nil, fmt.Errorf("core: cache codec: unknown kind %q", env.Kind)
		},
	}
}

// NewSweepCache builds a result cache wired with the core codec; path ""
// means memory-only. The second and third parameters are ignored: the
// frozen bench/ calls this four-argument form (see cache.PolicyType).
func NewSweepCache(capacity int, _ cache.PolicyType, _ []cache.PolicyType, path string) (*cache.Cache, error) {
	return cache.New(cache.Options{Capacity: capacity, Path: path, Codec: ResultCodec()})
}
