module github.com/mistralcloud/mistral/bench

go 1.22

require github.com/mistralcloud/mistral v0.0.0

replace github.com/mistralcloud/mistral => ../
