package main

import (
	"strings"
	"testing"
)

// TestValidateRole: -role accepts exactly solo | auto | client, the
// retired operator-run roles point at auto, and each role's required
// flags are enforced before any graph is built.
func TestValidateRole(t *testing.T) {
	cases := []struct {
		name                     string
		role, wal, listen, peers string
		wantErr                  string // substring; "" = accepted
	}{
		{name: "solo", role: "solo", wal: "w"},
		{name: "auto", role: "auto", wal: "w", listen: ":7401", peers: "a:1,b:2"},
		{name: "auto single member", role: "auto", wal: "w", listen: ":7401"},
		{name: "client", role: "client", peers: "a:1"},
		{name: "primary retired", role: "primary", wal: "w", peers: "a:1", wantErr: "-role auto"},
		{name: "follower retired", role: "follower", wal: "w", listen: ":1", wantErr: "-role auto"},
		{name: "unknown role", role: "leader", wal: "w", wantErr: "solo|auto|client"},
		{name: "auto without listen", role: "auto", wal: "w", peers: "a:1", wantErr: "-listen"},
		{name: "client without peers", role: "client", wantErr: "-peers"},
		{name: "client with blank peers", role: "client", peers: " , ", wantErr: "-peers"},
		{name: "solo without wal", role: "solo", wantErr: "-wal"},
		{name: "auto without wal", role: "auto", listen: ":7401", wantErr: "-wal"},
	}
	for _, c := range cases {
		err := validateRole(c.role, c.wal, c.listen, c.peers)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %q", c.name, c.wantErr)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.wantErr)
		}
	}
}
