package tib

import "unsafe"

// pages is an append-only buffer that grows by pages: a page is allocated
// at its full length and is never regrown, copied or reused, so the
// prefix a reader copied under the shard read lock (view) stays where it
// was, unchanged, after the lock is gone. The first page sits in the
// struct, so a one-page buffer has no page table; the table of the later
// pages is read only under the lock, which is what lets a seal hand it to
// the next segment (successor).
//
// Each new page is one longer than what the buffer holds past its first
// page, and never shorter than the first. A buffer seeded at half its
// predecessor's length therefore fills two pages when it reaches that
// length and a third, of about the same size, when it outgrows it by up
// to half; an unseeded one starts at one element and doubles.
//
// The page table starts with room for what a seeded buffer fills
// (seededTable). Read only under the lock, it may grow by copy: a buffer
// that outgrows it — an unseeded one, a shard's first segment — grows it
// eightfold (16 pages hold a doubling buffer's first 64 Ki elements), one
// regrowth where doubling would take three. A seal hands on only a table
// of the first size: a larger one would stay with every later segment of
// the shard.
type pages[T any] struct {
	first []T   // page 0
	more  [][]T // pages 1, 2, …: every one but the last is full
	n     int   // elements held
}

// seededTable is the page table's first size, and the largest a seal
// hands on: the pages past the first that a seeded buffer fills up to 1.5
// times its predecessor's length.
const seededTable = 2

// push appends v, starting a page when the last one is full. Caller
// holds the shard write lock.
func (p *pages[T]) push(v T) {
	last := &p.first
	if len(p.more) > 0 {
		last = &p.more[len(p.more)-1]
	}
	if len(*last) == cap(*last) {
		if f := cap(p.first); f == 0 {
			p.first = make([]T, 0, 1)
		} else {
			if len(p.more) == cap(p.more) {
				p.more = append(make([][]T, 0, max(seededTable, 8*cap(p.more))), p.more...)
			}
			p.more = append(p.more, make([]T, 0, max(f, p.n+1-f)))
			last = &p.more[len(p.more)-1]
		}
	}
	*last = append(*last, v) // within the page's capacity: never a copy
	p.n++
}

// last returns the newest element (p.n > 0).
func (p *pages[T]) last() *T {
	pg := p.first
	if len(p.more) > 0 {
		pg = p.more[len(p.more)-1]
	}
	return &pg[len(pg)-1]
}

// all yields the pages in order, each sliced to what it holds.
func (p *pages[T]) all(yield func([]T) bool) {
	if len(p.first) == 0 || !yield(p.first) {
		return
	}
	for _, pg := range p.more {
		if !yield(pg) {
			return
		}
	}
}

// view returns a reader's copy of p: the page headers as they stand,
// the later pages' table appended to *tab, which the reader owns. The
// writer's next appends and the seal's hand-over of p's table leave the
// copy as it was. Caller holds the shard read lock.
func (p *pages[T]) view(tab *[][]T) pages[T] {
	v := *p
	if len(p.more) > 0 {
		lo := len(*tab)
		*tab = append(*tab, p.more...)
		v.more = (*tab)[lo:len(*tab):len(*tab)]
	}
	return v
}

// successor returns the buffer that follows p in the next segment: its
// first page half p's length, rounded up, and p's page table cleared and
// handed over, if it is no larger than a seeded buffer needs. Caller
// holds the shard write lock, and p takes no more appends.
func (p *pages[T]) successor() pages[T] {
	clear(p.more)
	next := pages[T]{first: make([]T, 0, max(1, (p.n+1)/2))}
	if cap(p.more) <= seededTable {
		next.more = p.more[:0]
	}
	return next
}

// bytes is what the buffer occupies: every page at its capacity, and the
// page table.
func (p *pages[T]) bytes() int64 {
	n := cap(p.first)
	for _, pg := range p.more {
		n += cap(pg)
	}
	var t T
	return int64(n)*int64(unsafe.Sizeof(t)) + int64(cap(p.more))*int64(unsafe.Sizeof(p.first))
}
