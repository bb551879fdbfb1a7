package core

// stateSeal encrypts and authenticates plaintext under key: a one-shot
// envelope for tests that seal outside the guard.
func stateSeal(key, plaintext []byte) ([]byte, error) {
	c, err := stateCipherOf(key)
	if err != nil {
		return nil, err
	}
	return c.sealAppend(nil, plaintext)
}

// stateOpen reverses stateSeal.
func stateOpen(key, envelope []byte) ([]byte, error) {
	c, err := stateCipherOf(key)
	if err != nil {
		return nil, err
	}
	return c.open(envelope)
}
