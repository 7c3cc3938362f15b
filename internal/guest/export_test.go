package guest

// DecodeImage and EncodeImage open the kernel's codec to the external test
// package: the image is what flush writes to guest memory after the length
// header and what hydrate reads back.

// DecodeImage replaces k's struct form with the state image encodes, as
// hydrate does after a restore, but reports a decode error instead of
// panicking. The decoded Conn.Sent slices point into image.
func (k *Kernel) DecodeImage(image []byte) error {
	k.hydrate()
	return k.decode(image)
}

// EncodeImage returns the image of k's struct form.
func (k *Kernel) EncodeImage() []byte {
	k.hydrate()
	var w StateWriter
	k.marshal(&w)
	return w.Bytes()
}

// SendBufferCap returns the capacity of the buffer Env.Send appends to.
func (k *Kernel) SendBufferCap() int { return cap(k.sendBuf) }
