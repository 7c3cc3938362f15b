package spec

// ForgetPrefix makes m's next MutateSuffix call copy its prefix, as if the
// call before it had named another input.
func (m *Mutator) ForgetPrefix() { m.prefixOf = nil }

// PrefixCopies returns how many MutateSuffix calls past the first op copied
// their prefix rather than finding it kept.
func (m *Mutator) PrefixCopies() int { return m.prefixCopies }
