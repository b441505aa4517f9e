// Package iter is a fixture stub: the virtualtime analyzer identifies
// iter.Pull and iter.Pull2 by package path and name, so the stub only
// needs their signatures.
package iter

type Seq[V any] func(yield func(V) bool)

type Seq2[K, V any] func(yield func(K, V) bool)

func Pull[V any](seq Seq[V]) (func() (V, bool), func()) { return nil, nil }

func Pull2[K, V any](seq Seq2[K, V]) (func() (K, V, bool), func()) { return nil, nil }
