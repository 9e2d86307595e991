module top_module (input a, output y);
    assign y = ;
    always @(posedge) y <= a
    wire [3:] w;
