package jobstore

import (
	"repro/internal/config"
	"repro/internal/wire"
)

// docBlob encodes a test document the way the store holds it.
func docBlob(d config.Doc) wire.Blob {
	b, err := wire.EncodeDoc(d)
	if err != nil {
		panic(err)
	}
	return b
}

// committed is a test document as a running commit: the store decodes
// its config.
func committed(d config.Doc) Merged {
	return Merged{Doc: docBlob(d)}
}
