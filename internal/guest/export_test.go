package guest

// DecodeImage and EncodeImage open the kernel's codec to the external test
// package: the image is what flush writes to guest memory after the length
// header and what hydrate reads back. Flush and KernelSectionLen open the two
// ways the kernel learns an image's length, writing it and computing it.

// DecodeImage replaces k's struct form with the state image encodes, as
// hydrate does after a restore of a capture it has not read, but reports a
// decode error instead of panicking. It always decodes: image is no capture,
// so the kernel forgets the capture number it kept, and the next hydrate
// reads guest memory whatever it restored, and no Table or filesystem section
// is reused. The kernel reads a copy of image: restored Conn.Sent slices point
// into the kernel's one image buffer, not into image.
func (k *Kernel) DecodeImage(image []byte) error {
	k.hydrate()
	k.img = append(k.img[:0], image...)
	return k.decode()
}

// EncodeImage returns the image of k's struct form.
func (k *Kernel) EncodeImage() []byte {
	k.hydrate()
	var w StateWriter
	k.marshal(&w)
	return w.Bytes()
}

// Flush writes the struct form to guest memory, as the flush before a
// capture does, and returns the range it wrote: n is 0 when nothing was dirty.
func (k *Kernel) Flush() (off int64, n int) {
	if !k.dirty {
		return 0, 0
	}
	k.flush()
	return k.heapBase, len(k.enc.buf)
}

// KernelSectionLen returns the length of the kernel's section of the image as
// the discard hook computes it from the tables, and as marshal writes it.
func (k *Kernel) KernelSectionLen() (computed, written int) {
	k.hydrate()
	var w StateWriter
	k.marshalKernel(&w)
	return k.kernelLen(), len(w.buf)
}

// Stored returns the blob length the kernel keeps for the header in guest
// memory, which a flush writes past, and whether the struct form is dirty,
// when that length must be current.
func (k *Kernel) Stored() (n int, dirty bool) { return k.stored, k.dirty }

// SendBufferCap returns the capacity of the buffer Env.Send appends to.
func (k *Kernel) SendBufferCap() int { return cap(k.sendBuf) }

// Hydrates returns how many hydrates were identity hits, a restore of the
// capture the kernel last read served by copying back, and how many decoded
// an image (DecodeImage included).
func (k *Kernel) Hydrates() (hits, decodes int) { return k.hits, k.decodes }

// SetHitHook makes every kernel call fn at the end of each identity hit,
// with the image it copied back from, until SetHitHook(nil). Set it only
// while no kernel runs.
func SetHitHook(fn func(k *Kernel, img []byte)) {
	if fn == nil {
		hitHook = nil
		return
	}
	hitHook = func(k *Kernel) { fn(k, k.img) }
}

// MeasuredStateLen returns the length of the target's state section as the
// discard hook measures it and as SaveState encodes it.
func (k *Kernel) MeasuredStateLen() (measured, encoded int) {
	k.hydrate()
	m, w := StateWriter{measuring: true}, StateWriter{}
	k.Target.SaveState(&m)
	k.Target.SaveState(&w)
	return m.n, len(w.buf)
}
