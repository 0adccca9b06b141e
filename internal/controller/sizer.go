package controller

import (
	"encoding/json"
	"sync"
)

// sizer is a JSON encoder that counts the bytes it writes and keeps none
// of them. Sizers are pooled, so sizing a reply allocates nothing.
type sizer struct {
	n   int64
	enc *json.Encoder
}

// Write implements io.Writer.
func (s *sizer) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	return len(p), nil
}

var sizers = sync.Pool{New: func() any {
	s := new(sizer)
	s.enc = json.NewEncoder(s)
	return s
}}

// jsonLen is len(json.Marshal(v)), or 0 if v does not marshal.
func jsonLen(v any) int64 {
	s := sizers.Get().(*sizer)
	defer sizers.Put(s)
	s.n = -1 // Encode ends the value with a newline Marshal does not write
	if s.enc.Encode(v) != nil {
		return 0
	}
	return s.n
}
