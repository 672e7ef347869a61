package sched

import "reflect"

// EncodeBody returns the disk entry body PutAny writes for v, a *T.
func EncodeBody(v any) ([]byte, error) {
	ec, err := codecOf(v)
	if err != nil {
		return nil, err
	}
	return ec.encode(v), nil
}

// Fingerprint returns the type fingerprint that opens every entry body
// of a T.
func Fingerprint[T any]() []byte {
	fp := codecFor(reflect.TypeFor[T]()).fp
	return fp[:]
}
