package aemilia

// ElemType returns the element type with the given name
// (valid only after validation).
func (a *ArchiType) ElemType(name string) (*ElemType, bool) {
	et, ok := a.elemByName[name]
	return et, ok
}

// Instance returns the instance with the given name
// (valid only after validation).
func (a *ArchiType) Instance(name string) (*Instance, bool) {
	in, ok := a.instByName[name]
	return in, ok
}

// Behavior returns the behaviour equation with the given name
// (valid only after validation).
func (t *ElemType) Behavior(name string) (*Behavior, bool) {
	b, ok := t.behaviorByName[name]
	return b, ok
}
