package par

import "sync"

// Memo is a value built at most once and shared by every later reader:
// the first Get runs build, and every Get, concurrent or later, returns
// what that build returned, its error included. The zero value is ready
// for use. A Memo must not be copied after first use.
type Memo[T any] struct {
	once sync.Once
	v    T
	err  error
}

// Get returns the memoized value, calling build on the first call only.
// Concurrent first callers wait for the one build to finish.
func (m *Memo[T]) Get(build func() (T, error)) (T, error) {
	m.once.Do(func() { m.v, m.err = build() })
	return m.v, m.err
}
